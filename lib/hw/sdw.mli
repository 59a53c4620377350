(** Segment descriptor words.

    An SDW occupies two consecutive 36-bit words of physical memory.  It
    points at the segment's page table (itself an array of PTWs in
    physical memory), bounds the segment, and carries the access bits
    and ring brackets consulted on every reference.

    Layout:
    {v
      word 0:  0-23 page-table absolute address; 24 present; 25 valid
      word 1:  0-8 length in pages; 9 read; 10 write; 11 execute;
               12-14 r1; 15-17 r2; 18-20 r3 (ring brackets, r1<=r2<=r3)
    v} *)

type t = {
  page_table : Addr.abs;  (** absolute address of the first PTW *)
  present : bool;         (** segment connected to this address space *)
  valid : bool;
  length : int;           (** pages; references at or beyond fault *)
  read : bool;
  write : bool;
  execute : bool;
  r1 : int;
  r2 : int;
  r3 : int;
}

val words : int
(** Words per SDW (2). *)

val invalid : t

val make :
  page_table:Addr.abs -> length:int -> read:bool -> write:bool ->
  execute:bool -> r1:int -> r2:int -> r3:int -> t
(** Present, valid descriptor.  Checks [r1 <= r2 && r2 <= r3]. *)

val encode : t -> Word.t * Word.t
val decode : Word.t * Word.t -> t

val read_at : Phys_mem.t -> Addr.abs -> t
val write_at : Phys_mem.t -> Addr.abs -> t -> unit

val permits : t -> ring:int -> Fault.access -> bool
(** Simplified Multics access rule, documented in DESIGN.md: write needs
    the write bit and [ring <= r1]; read needs the read bit and
    [ring <= r2]; execute needs the execute bit and [ring <= r2].
    Cross-ring calls are handled by gates above the hardware. *)
