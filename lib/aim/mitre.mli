(** An executable fragment of the MITRE (Bell and LaPadula) model —
    the formal specification of the paper's box 4.

    The model's state is the set of current accesses: triples of a
    subject observing or modifying an object.  A state is {e secure}
    when every triple satisfies the simple security property (observe ⟹
    subject dominates object) and the *-property (modify ⟹ object
    dominates subject, for untrusted subjects).

    [request] is the transition rule: it grants an access only if the
    resulting state would remain secure.  The Basic Security Theorem —
    every state reachable through [request]/[release] from the empty
    state is secure — is checked as a property test over random request
    sequences, and the kernel's {!Flow} decisions are tested to agree
    with this specification point for point. *)

type access = Observe | Modify

type t

val create : unit -> t

val add_subject : t -> name:string -> label:Label.t -> trusted:bool -> unit
val add_object : t -> name:string -> label:Label.t -> unit

val request :
  t -> subject:string -> object_:string -> access ->
  [ `Granted | `Refused ]
(** Grant iff the new current-access set would still be secure.
    Raises [Invalid_argument] for unknown names. *)

val release : t -> subject:string -> object_:string -> access -> unit

val secure : t -> bool
(** Does every current access satisfy both properties? *)

val violations : t -> string list
(** Explanations for any triple violating a property. *)
