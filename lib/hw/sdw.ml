type t = {
  page_table : Addr.abs;
  present : bool;
  valid : bool;
  length : int;
  read : bool;
  write : bool;
  execute : bool;
  r1 : int;
  r2 : int;
  r3 : int;
}

let words = 2

let invalid =
  { page_table = 0; present = false; valid = false; length = 0; read = false;
    write = false; execute = false; r1 = 0; r2 = 0; r3 = 0 }

let make ~page_table ~length ~read ~write ~execute ~r1 ~r2 ~r3 =
  assert (r1 <= r2 && r2 <= r3);
  assert (length >= 0 && length <= Addr.max_pages_per_segment);
  { page_table; present = true; valid = true; length; read; write; execute;
    r1; r2; r3 }

let encode t =
  let w0 = Word.insert Word.zero ~pos:0 ~len:24 t.page_table in
  let w0 = Word.set_bit w0 24 t.present in
  let w0 = Word.set_bit w0 25 t.valid in
  let w1 = Word.insert Word.zero ~pos:0 ~len:9 t.length in
  let w1 = Word.set_bit w1 9 t.read in
  let w1 = Word.set_bit w1 10 t.write in
  let w1 = Word.set_bit w1 11 t.execute in
  let w1 = Word.insert w1 ~pos:12 ~len:3 t.r1 in
  let w1 = Word.insert w1 ~pos:15 ~len:3 t.r2 in
  let w1 = Word.insert w1 ~pos:18 ~len:3 t.r3 in
  (w0, w1)

let decode (w0, w1) =
  { page_table = Word.extract w0 ~pos:0 ~len:24;
    present = Word.bit w0 24;
    valid = Word.bit w0 25;
    length = Word.extract w1 ~pos:0 ~len:9;
    read = Word.bit w1 9;
    write = Word.bit w1 10;
    execute = Word.bit w1 11;
    r1 = Word.extract w1 ~pos:12 ~len:3;
    r2 = Word.extract w1 ~pos:15 ~len:3;
    r3 = Word.extract w1 ~pos:18 ~len:3 }

let read_at mem a = decode (Phys_mem.read mem a, Phys_mem.read mem (a + 1))

let write_at mem a t =
  let w0, w1 = encode t in
  Phys_mem.write mem a w0;
  Phys_mem.write mem (a + 1) w1

let permits t ~ring access =
  match access with
  | Fault.Write -> t.write && ring <= t.r1
  | Fault.Read -> t.read && ring <= t.r2
  | Fault.Execute -> t.execute && ring <= t.r2
