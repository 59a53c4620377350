(** The static dependency audit of lib/core: the paper's integrity
    audit, read from the code instead of sampled from a run.

    The build runs [ocamldep -modules] over [lib/core/*.ml]; every
    module a file references is a dependency an auditor must read,
    whether it is called, matched on or only stored (a handle type).
    Each module is mapped through {!Multics_kernel.Registry.modules} to
    the node of the declared graph whose code it is, and the resulting
    node-to-node graph is compared with
    {!Multics_kernel.Registry.declared_graph}.  The audit fails on

    - a code edge the declared graph does not declare,
    - a module that is in no table (neither mapped nor infrastructure),
    - an infrastructure module that references a manager's module, and
    - a loop among the code's edges.

    It also lists, without failing, the declared [Component] and
    [Explicit_call] edges that no code references: coverage gaps an
    auditor would note.

    Closures handed across a module boundary at run time are invisible
    to [ocamldep] and so to this audit.  One is left, declared:
    [Multics_hw.Io_sched.set_on_apply] and its forwarder
    {!Multics_kernel.Volume.set_on_apply}.  Nothing in lib/ installs
    it; it is a bench tap (C4's shadow disk, a test_io case,
    [chaos_demo]) that no kernel decision depends on.  Every other way
    up is the upward signal, whose queue is infrastructure.  The
    continuations a caller hands down with its own work (I/O [done_],
    [Vp.bind]'s step, the interpreter) run that caller's code. *)

type edge = {
  from : string;
  to_ : string;
  witnesses : string list;
      (** the references that make the edge, as ["segment.ml: Volume"] *)
}

type t = {
  modules : int;  (** files read *)
  edges : edge list;  (** node-to-node, sorted; self-edges dropped *)
  undeclared : edge list;
  unmapped : string list;  (** modules in no table *)
  infrastructure_refs : (string * string) list;
      (** (infrastructure module, manager module it references) *)
  loops : string list list;
  unreferenced : (string * string) list;
      (** declared [Component]/[Explicit_call] edges no code makes *)
}

val of_text : string -> t
(** Audit [ocamldep -modules] output, one ["path/file.ml: M1 M2 ..."]
    line per file.  References to modules that are in no table
    (the stdlib, other libraries) are ignored. *)

val lib_core : unit -> t
(** The audit of this build's lib/core sources. *)

val ok : t -> bool
(** No undeclared edge, unmapped module, infrastructure reference or
    loop. *)

val pp : Format.formatter -> t -> unit
