(** The schedule explorer: a model-checking scheduler for the loop-free
    kernel.

    The simulation is a discrete-event system whose only nondeterminism
    is funnelled through {!Multics_choice.Choice} points (VP dispatch,
    the level-2 scheduler pick, eventcount wakeup order, I/O completion
    delivery and retry backoff).  A {e system under test} is therefore just
    a function from a choice strategy to a list of oracle violations:
    boot fresh state, drive it to quiescence, check invariants.  Every
    run is independent, so exploring the schedule space is a stateless
    search over choice scripts — record the trace of one run, branch on
    an undetermined position, replay the prefix and diverge.

    Three strategies:
    - {!check_default} runs the recorded-default policy once, proving
      the generalized choice path reproduces the deterministic kernel;
    - {!check_random} fuzzes schedules from consecutive seeds;
    - {!check_dfs} walks the choice tree exhaustively (bounded), with a
      sleep-set-lite pruning rule: a sibling alternative whose element
      identity duplicates one already expanded at that position cannot
      lead to a new schedule and is skipped.

    Because every run is an independent pure function of its script or
    seed, both searches parallelize over the {!Multics_par.Par} domain
    farm via their [?domains] argument.  The work performed and the
    outcome produced are pure functions of the search arguments —
    [domains] only changes wall-clock time, never a byte of the result
    (test/test_par.ml holds the line).

    A failing run's choice script is shrunk ({!minimize}) and replayed
    ({!replay}) to produce a minimal counterexample whose events line up
    with the kernel's trace timeline. *)

module Choice = Multics_choice.Choice

type system = {
  sys_name : string;
  sys_run : Choice.t -> string list;
      (** Boot fresh state under the strategy, run to quiescence, and
          return oracle violations (empty = this schedule is safe). *)
  sys_flight : (unit -> string) option;
      (** Read the flight-recorder dump of the system's most recent
          run.  The explorer calls it right after the final minimal
          replay, so a counterexample ships with the causal trace of
          the shrunk failing schedule.  [None] for systems without a
          sink. *)
}

type stats = {
  runs : int;  (** schedules executed, including shrink trials *)
  distinct : int;  (** distinct choice traces observed *)
  decisions : int;  (** choice points consulted, summed over runs *)
  pruned : int;  (** sibling alternatives skipped by identity pruning *)
  frontier_left : int;  (** unexplored scripts when the budget ran out *)
}

type outcome =
  | Passed of stats
  | Failed of {
      f_stats : stats;
      f_problems : string list;  (** the oracle's violation report *)
      f_script : int list;  (** minimal counterexample choice script *)
      f_events : Choice.event list;  (** the script's decoded schedule *)
      f_seed : int option;  (** seed, when the random strategy found it *)
      f_flight : string;
          (** flight-recorder dump of the minimal failing replay, with
              causal contexts; [""] when the system has no sink *)
    }

val check_default : system -> outcome
(** One run under {!Choice.record_default}: every choice point takes its
    deterministic path but is consulted and recorded, so a pass here
    certifies the generalized path agrees with the stock kernel. *)

val check_random :
  ?domains:int -> ?runs:int -> ?seed:int -> system -> outcome
(** [runs] (default 50) schedules from seeds [seed], [seed+1], ...
    (default seed 1), sharded across [domains] (default 1) pool
    domains.  Every seed in the range is executed — stats account the
    whole range — and the violation with the lowest seed is the one
    shrunk and reported, so the outcome is byte-identical for every
    [domains] value. *)

val check_dfs :
  ?domains:int ->
  ?split_depth:int ->
  ?max_runs:int ->
  ?max_depth:int ->
  system ->
  outcome
(** Bounded exhaustive search: depth-first over the choice tree,
    branching on every undetermined position of each trace (positions
    beyond [max_depth], default unlimited, are not branched), stopping
    after roughly [max_runs] (default 500) schedules; [frontier_left]
    reports how much tree remained.

    The search is frontier-split: a sequential prefix walk branches
    only below [split_depth] (default 2); deeper branches become
    subtree roots explored independently — in parallel across
    [domains] (default 1), each walk with its own sleep-set state and
    a budget slice fixed by the argument values.  Merged stats and the
    first counterexample (lowest subtree index, so shrinking stays
    exact) are byte-identical for every [domains] value. *)

val replay : system -> script:int list -> string list * Choice.event list
(** Re-execute one schedule from its choice script; returns the oracle
    report and the decoded choice events — the counterexample
    transcript. *)

val minimize : system -> script:int list -> int list * int
(** Greedy shrink: drop trailing choices (a scripted strategy pads
    zeros, so trailing zeros are free) and zero interior ones while the
    failure persists.  Returns the smaller script and the number of
    verification runs spent. *)

val pp_outcome : Format.formatter -> outcome -> unit
