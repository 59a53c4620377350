module K = Multics_kernel
module Aim = Multics_aim

type variant = Monolithic | Split

type login_error = [ `Bad_password | `No_such_user | `Shed ]

type user_entry = {
  ue_hash : Password.hashed;
  ue_clearance : Aim.Label.t;
}

type session = { s_user : string; s_start : int }

type t = {
  kernel : K.Kernel.t;
  variant : variant;
  users : (string, user_entry) Hashtbl.t;
  acct : Accounting.t;
  sessions : (int, session) Hashtbl.t;
  mutable login_count : int;
  mutable failure_count : int;
  mutable shed_count : int;  (* logins refused by brownout's top rung *)
}

let create ~kernel ~variant =
  { kernel; variant; users = Hashtbl.create 16; acct = Accounting.create ();
    sessions = Hashtbl.create 16; login_count = 0; failure_count = 0;
    shed_count = 0 }

let meter t = K.Kernel.meter t.kernel

(* Trusted core work (in the kernel's audit boundary in both variants). *)
let charge_core t ns =
  K.Meter.charge (K.Meter.account (meter t) "answering_service") K.Cost.Pl1 ns

(* Login-server work: user domain in the split variant, still trusted in
   the monolith. *)
let charge_server t ns =
  let manager =
    match t.variant with
    | Monolithic -> "answering_service"
    | Split -> "login_server"
  in
  K.Meter.charge (K.Meter.account (meter t) manager) K.Cost.Pl1 ns

let register_user t ~user ~password ~clearance =
  charge_core t K.Cost.directory_entry_op;
  Hashtbl.replace t.users user
    { ue_hash = Password.hash ~salt:user password; ue_clearance = clearance }

(* The authentication core: the part Montgomery showed must stay
   trusted. *)
let authenticate t ~user ~password =
  charge_core t K.Cost.password_hash;
  match Hashtbl.find_opt t.users user with
  | None -> Error `No_such_user
  | Some entry ->
      if Password.verify entry.ue_hash password then Ok entry
      else Error `Bad_password

let login ?(load_class = 0) ?deadline_ns t ~user ~password ~program =
  (* A login is a request entry point: open a root context under the
     user's name so everything done on its behalf — authentication,
     process creation, the spawned process's own root — has a causal
     anchor, and meter the whole dialogue against the "as.login" SLO.
     Login runs inline (the simulated clock does not advance), so the
     latency sample is the metered-cost delta across the call. *)
  let obs = K.Kernel.obs t.kernel in
  if
    K.Kernel.brownout_level t.kernel >= K.Kernel.brownout_max_level
    && load_class >= 1
  then begin
    (* Brownout's top rung: refuse every session but the interactive
       class.  The service reads the kernel's ladder; the kernel calls
       nothing up here.  No authentication work is charged — the point
       of shedding at the front door is that a refused login costs
       almost nothing. *)
    t.shed_count <- t.shed_count + 1;
    Error `Shed
  end
  else begin
  let prev_ctx = Multics_obs.Sink.current obs in
  let deadline =
    match deadline_ns with
    | None -> None
    | Some d -> Some (Multics_obs.Sink.now obs + d)
  in
  let ctx = Multics_obs.Sink.new_ctx obs ~parent:0 ?deadline ~origin:user () in
  Multics_obs.Sink.set_current obs ctx;
  let cost0 = K.Meter.total (meter t) in
  let result =
    (* Terminal dialogue and argument parsing: login-server work. *)
    charge_server t (3 * K.Cost.directory_entry_op);
    (match t.variant with
    | Monolithic -> ()
    | Split ->
        (* The server, in an outer ring, crosses into the authentication
           core and again for process creation: the 3% the paper
           measured. *)
        K.Meter.charge (K.Meter.account (meter t) "login_server") K.Cost.Pl1
          (2 * K.Cost.ring_crossing));
    match authenticate t ~user ~password with
    | Error e ->
        t.failure_count <- t.failure_count + 1;
        Accounting.note_failure t.acct ~user;
        Error e
    | Ok entry ->
        charge_server t K.Cost.accounting_update;
        let pid =
          K.Kernel.spawn t.kernel
            ~principal:{ K.Acl.user; project = "users" }
            ~label:entry.ue_clearance ~ring:5 ~pname:(user ^ ".proc") program
        in
        t.login_count <- t.login_count + 1;
        Accounting.note_login t.acct ~user;
        Hashtbl.replace t.sessions pid
          { s_user = user; s_start = K.Kernel.now t.kernel };
        Ok pid
  in
  Multics_obs.Sink.add_latency obs ~name:"as.login"
    (K.Meter.total (meter t) - cost0);
  Multics_obs.Sink.set_current obs prev_ctx;
  result
  end

let shed_logins t = t.shed_count

let logout t ~pid =
  charge_server t K.Cost.accounting_update;
  match Hashtbl.find_opt t.sessions pid with
  | None -> ()
  | Some s ->
      let p = K.User_process.proc (K.Kernel.user_process t.kernel) pid in
      (* Page I/Os done on the user's behalf, joined from the sink's
         request-context attribution (reads the user triggered plus
         write-behinds and read-aheads spawned for them). *)
      let ios =
        match
          Multics_obs.Sink.user_usage (K.Kernel.obs t.kernel) ~user:s.s_user
        with
        | Some (_cpu, ios) -> ios
        | None -> 0
      in
      Accounting.note_usage t.acct ~user:s.s_user
        ~connect_ns:(K.Kernel.now t.kernel - s.s_start)
        ~cpu_ns:p.K.User_process.cpu_ns ~pages:ios;
      Hashtbl.remove t.sessions pid

let accounting t = t.acct
let logins t = t.login_count
let failures t = t.failure_count

let trusted_lines t =
  match t.variant with Monolithic -> 10_000 | Split -> 900
