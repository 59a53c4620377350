(** The paper's classification of intermodule dependencies.

    For a module M, the five proper kinds (paper pp. 10-11):
    - {e Component}: M's objects are represented by objects managed by
      the target module.
    - {e Map}: the mapping from M's object names to component names is
      stored in objects of the target module.
    - {e Program}: M's algorithms and temporary storage live in objects
      of the target module.
    - {e Address_space}: the address space in which M executes is an
      object of the target module.
    - {e Interpreter}: M's virtual processor is implemented by the
      target module.

    Two further kinds label dependencies found in systems "modularized
    and structured by different principles (or no principles at all!)":
    explicit procedure calls / message round-trips, and direct sharing
    of writable data.  The goal of redesign is their elimination. *)

type t =
  | Component
  | Map
  | Program
  | Address_space
  | Interpreter
  | Explicit_call
  | Shared_data

val all : t list
val proper : t -> bool
(** True for the five type-extension kinds, false for [Explicit_call]
    and [Shared_data]. *)

val to_string : t -> string
val short : t -> string
(** One- or two-letter tag used in rendered figures. *)

val compare : t -> t -> int
