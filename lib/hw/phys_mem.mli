(** Primary memory.

    A flat array of 36-bit words organised as page frames.  Everything
    the processor can see — including page tables and descriptor
    segments — lives here; higher layers that keep "maps" keep them in
    these words, which is what makes the paper's map dependencies real
    in this reproduction. *)

type t

val create : frames:int -> t
(** Fresh memory of [frames] page frames, zero-filled. *)

val frames : t -> int
val words : t -> int

val read : t -> Addr.abs -> Word.t
(** Raises [Invalid_argument] outside physical memory. *)

val write : t -> Addr.abs -> Word.t -> unit

val read_frame : t -> int -> Page_image.t
(** Snapshot frame [n] into a new image: the one host copy of a
    page-out.  Later stores into the frame do not reach the image, so
    the page can be written behind while the frame is reused.  Like
    {!write_frame} it is a transfer, not a processor reference, and
    leaves {!reads}/{!writes} untouched. *)

val write_frame : t -> int -> Page_image.t -> unit
(** Load an image into frame [n], overwriting all its words: the one
    host copy of a page-in.  The image stays shared and unchanged. *)

val zero_frame : t -> int -> unit

val frame_is_zero : t -> int -> bool
(** True when every word of the frame is zero — the test the paper's
    page-removal algorithm performs before writing a page to disk. *)

val reads : t -> int
val writes : t -> int
(** Access counters, for the cost model and tests. *)
