(** A fixed-size domain-pool run-farm with deterministic work
    distribution.

    The schedule explorer, the fuzz suites and the benches all reduce
    to the same shape: [n] independent pure tasks, each a function of
    its index alone, whose results must be assembled in index order.
    [run] executes them on a fixed pool of OCaml 5 domains and returns
    [[| f 0; f 1; ...; f (n-1) |]] — {e byte-identical} regardless of
    how many domains executed it, because:

    - distribution is static and by index: domain [d] of [D] owns the
      contiguous block [[d*n/D, (d+1)*n/D)], so which domain runs a
      task is a pure function of [(n, D, index)] — there is no work
      stealing and no completion-order dependence;
    - every result lands in a pre-sized per-task slot, so the output
      array is the same whatever order tasks finish in;
    - nothing in the farm consults a clock, a PRNG or any other
      ambient source of nondeterminism.

    Tasks must themselves be self-contained: a task may allocate and
    mutate freely but must not touch state shared with another task
    (the kernel's boot path satisfies this — every [Kernel.boot]
    builds its own machine, meter, sink and choice state, and only
    reads the declared dependency graph they share; see
    test/test_par.ml for the proof).

    A task that raises aborts the farm: every worker still runs to
    completion (joins are unconditional), then the exception of the
    {e lowest-indexed} failed task is re-raised on the caller's
    domain — again independent of domain count. *)

val available : unit -> int
(** Domains worth spawning on this host
    ({!Domain.recommended_domain_count}). *)

val default_domains : unit -> int
(** The [MULTICS_DOMAINS] environment variable when set to a positive
    integer, else 1.  Lets CI and the command line widen the pool
    without threading a flag through every entry point. *)

val run : ?domains:int -> tasks:int -> (int -> 'a) -> 'a array
(** [run ~domains ~tasks f] evaluates [f i] for [i = 0..tasks-1] and
    returns the results in index order.  [domains] (default 1) is
    clamped to [[1, tasks]]; with 1 domain the tasks run inline on the
    calling domain, no spawn at all, so the sequential baseline pays
    zero farm overhead.  [f] runs concurrently with other calls of
    [f] — it must not share mutable state across indices. *)
