(** The dynamic linker, in both placements (Janson, 1974).

    Resolving a symbolic reference means walking the process's search
    rules — a list of directories — probing each for the symbol, then
    snapping the link.  Nothing in that requires kernel privilege.

    [In_kernel]: the link fault traps to ring 0 and the whole search
    runs there (no gate crossings, but 2,000 lines inside the audit
    boundary and 17 extra user-callable entry points).

    [User_ring]: the fault is reflected to the user ring; each probe is
    a kernel search gate call.  The paper: "the dynamic linker ran
    somewhat slower when removed from the kernel, [but] the causes were
    well understood and curable". *)

type placement = In_kernel | User_ring

type t

val create : kernel:Multics_kernel.Kernel.t -> placement:placement -> t

val resolve :
  t -> subject:Multics_kernel.Directory.subject -> ring:int -> symbol:string ->
  search_rules:string list ->
  (Multics_kernel.Directory.target * string, [ `Unresolved ]) result
(** Probe each search-rule directory for a segment named [symbol]; on
    success snap the link (returns the target and the winning
    directory).  All costs land on the kernel's meter. *)

val snap_cache_lookup : t -> symbol:string -> bool
(** Already-snapped links cost almost nothing; true on hit. *)

val gate_crossings : t -> int
(** Crossings attributable to linking (0 when in-kernel). *)
