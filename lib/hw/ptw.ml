type t = {
  arg : int;
  present : bool;
  modified : bool;
  used : bool;
  locked : bool;
  unallocated : bool;
  valid : bool;
  damaged : bool;
}

let invalid =
  { arg = 0; present = false; modified = false; used = false; locked = false;
    unallocated = false; valid = false; damaged = false }

let unallocated_ptw = { invalid with unallocated = true; valid = true }
let in_core ~frame = { invalid with arg = frame; present = true; valid = true }
let on_disk ~record = { invalid with arg = record; valid = true }

(* A damaged page is absent, so touching it raises a missing-page
   fault; the fault handler sees the bit and signals the process
   instead of starting a read. *)
let damaged_ptw ~record =
  { invalid with arg = record; valid = true; damaged = true }

let encode t =
  let w = Word.insert Word.zero ~pos:0 ~len:18 t.arg in
  let w = Word.set_bit w 18 t.present in
  let w = Word.set_bit w 19 t.modified in
  let w = Word.set_bit w 20 t.used in
  let w = Word.set_bit w 21 t.locked in
  let w = Word.set_bit w 22 t.unallocated in
  let w = Word.set_bit w 23 t.valid in
  Word.set_bit w 24 t.damaged

let decode w =
  { arg = Word.extract w ~pos:0 ~len:18;
    present = Word.bit w 18;
    modified = Word.bit w 19;
    used = Word.bit w 20;
    locked = Word.bit w 21;
    unallocated = Word.bit w 22;
    valid = Word.bit w 23;
    damaged = Word.bit w 24 }

let read mem a = decode (Phys_mem.read mem a)
let write mem a t = Phys_mem.write mem a (encode t)

(* Page-table construction writes one of these per page: the
   unallocated descriptor is a constant, and an on-disk descriptor is
   the valid bit over the record field, as [encode] would build it. *)
let unallocated_word = encode unallocated_ptw
let valid_bit = encode { invalid with valid = true }
let on_disk_word ~record = valid_bit lor (record land ((1 lsl 18) - 1))

(* Raw-word probes for the translation fast path: the CPU reads the
   PTW once and tests bits in place, building no record on the hit
   path.  Positions as in the layout comment; [decode (encode t) = t]
   pins the two views together. *)
let raw_arg w = Word.extract w ~pos:0 ~len:18
let raw_present w = Word.bit w 18
let raw_modified w = Word.bit w 19
let raw_used w = Word.bit w 20
let raw_locked w = Word.bit w 21
let raw_unallocated w = Word.bit w 22
let raw_valid w = Word.bit w 23
let raw_damaged w = Word.bit w 24
let raw_lock w = Word.set_bit w 21 true
let raw_clear_used w = Word.set_bit w 20 false
let raw_clear_modified w = Word.set_bit w 19 false

let raw_mark_accessed w ~write =
  Word.set_bit (if write then Word.set_bit w 19 true else w) 20 true

let pp ppf t =
  Format.fprintf ppf "ptw{arg=%d%s%s%s%s%s%s%s}" t.arg
    (if t.valid then " valid" else "")
    (if t.present then " present" else "")
    (if t.modified then " mod" else "")
    (if t.used then " used" else "")
    (if t.locked then " locked" else "")
    (if t.unallocated then " unalloc" else "")
    (if t.damaged then " damaged" else "")
