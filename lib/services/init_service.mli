(** System initialisation (Luniewski, 1977).

    Initialisation builds a pile of tables before the kernel proper can
    run.  The redesign performs most of that work "in a user process
    environment in a previous system incarnation": the prior system
    computes and checks the tables, writes them out, and the next boot
    merely loads and verifies them — removing about 2,000 lines from
    the kernel.

    The model: a fixed catalogue of initialisation steps, each either
    executed in-kernel at boot, or pre-computed (cheaply verified at
    boot). *)

type variant = In_kernel | Previous_incarnation

type step = { step_name : string; build_cost : int; verify_cost : int }

type result = {
  boot_kernel_ns : int;  (** simulated ns of ring-0 work at boot *)
  prior_user_ns : int;  (** work done ahead of time in the user process *)
  kernel_lines : int;  (** initialisation code inside the kernel *)
  steps_run : int;
}

val run : variant -> result
