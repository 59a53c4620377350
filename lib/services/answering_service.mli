(** The Answering Service: logins, authentication, accounting
    (Montgomery, 1976).

    [Monolithic]: the historical arrangement — 10,000 lines running in
    one trusted process; every step (terminal dialogue, password check,
    process creation, accounting) is inside the kernel's trust boundary.

    [Split]: fewer than 1,000 lines — an authentication core and the
    process-creation gate — keep kernel trust; the dialogue and
    accounting run as an ordinary user-domain login server that calls
    the core through gates.  "The revised Answering Service, in its
    preliminary implementation, ran about 3% slower." *)

type variant = Monolithic | Split

type login_error = [ `Bad_password | `No_such_user | `Shed ]
(** [`Shed]: refused before authentication — the kernel's brownout
    ladder is at its top rung and the session's load class is not 0. *)

type t

val create :
  kernel:Multics_kernel.Kernel.t -> variant:variant -> t

val register_user :
  t -> user:string -> password:string -> clearance:Multics_aim.Label.t -> unit

val login :
  ?load_class:int -> ?deadline_ns:int -> t -> user:string -> password:string ->
  program:Multics_kernel.Workload.program ->
  (int, login_error) result
(** Authenticate and create the user's process at (or below) their
    registered clearance.  Costs land on the kernel meter under
    "answering_service" / "login_server".

    [load_class] (default 0) ranks the session for overload shedding:
    0 = interactive/premium, never shed; every higher class is refused
    with [`Shed] while {!Multics_kernel.Kernel.brownout_level} is at
    {!Multics_kernel.Kernel.brownout_max_level}.  [deadline_ns]
    (relative simulated time) stamps the login's root context and is
    inherited by the spawned process: the whole session becomes one
    end-to-end request that the kernel's deadline checkpoints can
    cancel. *)

val shed_logins : t -> int
(** Logins refused with [`Shed]. *)

val logout : t -> pid:int -> unit
(** Record usage for the session. *)

val accounting : t -> Accounting.t
val logins : t -> int
val failures : t -> int
val trusted_lines : t -> int
(** Source lines inside the trust boundary for this variant (from the
    census: 10,000 vs 900). *)
