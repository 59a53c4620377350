(** The virtual processor manager (level 1 of the two-level process
    implementation).

    A fixed number of virtual processors is created at initialisation;
    their states live in a core segment, so this manager never touches
    the virtual memory — the property that breaks the classic
    interpreter loop (paper p.17).  Some VPs are permanently bound to
    kernel modules (the scheduler, the page-cleaning daemons); a subset
    is handed to the user process manager for multiplexing arbitrary
    user processes.

    A bound VP runs as a sequence of steps.  Each step is a closure
    returning how much simulated time it consumed and whether the VP
    remains ready, waits on an eventcount, or stops.  The manager
    interleaves ready VPs over the machine's CPUs through the event
    queue; the await/advance primitives are eventcounts, and the
    immediate-wakeup path models the paper's wakeup-waiting switch. *)

type run_result =
  | Continue of int  (** cost in ns; VP stays ready *)
  | Wait of Multics_sync.Eventcount.t * int * int
      (** await (eventcount, value); last component is the step cost *)
  | Stopped of int  (** cost; VP becomes idle and unbound *)

type vp = {
  vp_id : int;
  mutable vp_state : [ `Idle | `Ready | `Running | `Waiting ];
  mutable bound_to : string option;  (** manager or process label *)
  mutable steps : int;
  mutable waits : int;
  mutable vp_ctx : int;
      (** root request context allocated at bind; ambient while the VP
          steps, cleared on [Stopped] *)
}

type t

val create :
  ?choice:Multics_choice.Choice.t ->
  machine:Multics_hw.Machine.t -> meter:Meter.t ->
  core:Core_segment.t -> n_vps:int -> unit -> t
(** [choice] (default inert) governs which ready VP a free CPU
    dispatches — the affinity-then-round-robin scan under the inert
    strategy, a strategy-picked ready VP (domain ["vp.dispatch"],
    ids = vp ids) otherwise. *)

val n_vps : t -> int
val vp : t -> int -> vp

val state_word_agrees : t -> int -> bool
(** Whether VP [i]'s wired state word (in the core segment) encodes its
    in-record state — an invariant the consistency oracle checks. *)

val bind :
  ?deadline:int -> t -> vp_id:int -> name:string -> step:(vp -> run_result) ->
  unit
(** Bind an idle VP and mark it ready.  Raises [Invalid_argument] if the
    VP is not idle.  [deadline] (an absolute simulated instant) stamps
    the VP's root context — work the VP does after it passes is shed at
    the deadline checkpoints. *)

val find_idle : t -> int option

val kick : t -> unit
(** Wake idle CPUs if ready VPs exist: boot's first dispatch, and
    called automatically when an eventcount notification readies a
    VP. *)

(* Statistics *)
val dispatches : t -> int
val context_switches : t -> int
val wakeup_waiting_saves : t -> int
(** Notifications that arrived between a wait decision and registration
    and were caught by the wakeup-waiting switch rather than lost. *)
