(** Immutable page images.

    A page image is the [Addr.page_size] words a page transfer moves
    between a core frame and a disk record.  Once built it is never
    mutated, which is what lets one image be shared instead of copied:
    the frame's snapshot, the I/O scheduler's write-behind buffer, the
    request queue, every reader the buffer serves, the platter and the
    platter-apply hook all hold the same value.  A page transfer copies
    the page on the host exactly once — when {!Phys_mem.read_frame}
    snapshots a frame (page-out) or {!Phys_mem.write_frame} loads an
    image into one (page-in) — and nowhere else.

    The type is abstract so the sharing is safe by construction: with
    a bare word array one stray store into a buffered image would
    rewrite the platter's copy and the write buffer's at once, and a
    shadow-disk check comparing the two would compare an image with
    itself.  Only {!zero}, {!of_words} and {!sub} build images, and
    the last two copy their source, so no caller can keep a mutable
    alias of one. *)

type t

val zero : unit -> t
(** The all-zero page: what a never-written record reads as.  Built
    on first use and shared, not allocated per call. *)

val of_words : Word.t array -> t
(** Copy of a word array of exactly [Addr.page_size] words. *)

val to_words : t -> Word.t array
(** Fresh, mutable copy of the image's words. *)

val sub : Word.t array -> pos:int -> t
(** Copy of the [Addr.page_size] words of an array starting at [pos] —
    the frame snapshot.  A typed word loop: the image is allocated once
    and filled without the generic array primitives' per-word write
    barrier. *)

val blit : t -> Word.t array -> pos:int -> unit
(** Copy the image's words into an array starting at [pos] — the frame
    load.  A typed word loop, like {!sub}. *)

val get : t -> int -> Word.t
(** Word [i]; raises [Invalid_argument] outside the page. *)

val iter : (Word.t -> unit) -> t -> unit
(** Visit the words in address order. *)

val equal : t -> t -> bool
(** Same words.  Physically equal images are equal without a scan. *)
