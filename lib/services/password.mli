(** Password hashing for the Answering Service.

    A salted, iterated FNV-style hash.  NOT cryptographic — the paper's
    question is {e where} authentication lives (inside or outside the
    kernel), not how strong the hash is; a real deployment would
    substitute a memory-hard KDF. *)

type hashed

val hash : salt:string -> string -> hashed
val verify : hashed -> string -> bool

val to_string : hashed -> string
