module K = Multics_kernel
module L = Multics_legacy
module S = Multics_services
module Hw = Multics_hw
module Obs = Multics_obs

let low = Multics_aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

type session = {
  ses_user : string;
  ses_pid : int;
  ses_start_ns : int;
  ses_deadline_ns : int;
  mutable ses_pending : int;
  mutable ses_remote : int list;
  mutable ses_settled_pages : int;
  mutable ses_shed : int;
  mutable ses_state : [ `Running | `Settling | `Closed ];
}

type backend =
  | B_kernel of { k : K.Kernel.t; svc : S.Answering_service.t }
  | B_legacy of {
      sup : L.Old_supervisor.t;
      users : (string, S.Password.hashed) Hashtbl.t;
      acct : S.Accounting.t;
    }

type t = {
  sh_id : int;
  sh_outbox : Link.envelope Queue.t;
  mutable sh_seq : int;
  sh_sessions : (int, session) Hashtbl.t;
  mutable sh_logins : int;
  mutable sh_login_failures : int;
  mutable sh_remote_calls : int;
  mutable sh_local_calls : int;
  mutable sh_shed : int;
  sh_ledger : (string * int, int ref) Hashtbl.t;
  mutable sh_new : session list;
  sh_backend : backend;
}

let make id backend =
  { sh_id = id; sh_outbox = Queue.create (); sh_seq = 0;
    sh_sessions = Hashtbl.create 64; sh_logins = 0; sh_login_failures = 0;
    sh_remote_calls = 0; sh_local_calls = 0; sh_shed = 0;
    sh_ledger = Hashtbl.create 64; sh_new = []; sh_backend = backend }

let boot_kernel ?(rgate_quota = 64) cfg id =
  let k = K.Kernel.boot cfg in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">rgate" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">rgate" ~limit:rgate_quota;
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  make id (B_kernel { k; svc })

let boot_legacy ?(rgate_quota = 64) cfg id =
  let sup = L.Old_supervisor.boot cfg in
  L.Old_supervisor.mkdir sup ~path:">home" ~acl:open_acl;
  L.Old_supervisor.mkdir sup ~path:">rgate" ~acl:open_acl;
  L.Old_supervisor.set_quota sup ~path:">rgate" ~limit:rgate_quota;
  make id
    (B_legacy
       { sup; users = Hashtbl.create 64; acct = S.Accounting.create () })

let is_legacy t = match t.sh_backend with B_legacy _ -> true | _ -> false

let machine t =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.Kernel.machine k
  | B_legacy { sup; _ } -> (L.Old_supervisor.state sup).L.Old_types.machine

let now t = Hw.Machine.now (machine t)

let kernel t =
  match t.sh_backend with B_kernel { k; _ } -> Some k | B_legacy _ -> None

let accounting t =
  match t.sh_backend with
  | B_kernel { svc; _ } -> S.Answering_service.accounting svc
  | B_legacy { acct; _ } -> acct

let run_until t ~time =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.Kernel.run ~until:time k
  | B_legacy { sup; _ } -> L.Old_supervisor.run ~until:time sup

let next_event t = Hw.Event_queue.next_time (machine t).Hw.Machine.events
let quiescent t = next_event t = None

let register_user t ~user ~password =
  match t.sh_backend with
  | B_kernel { svc; _ } ->
      S.Answering_service.register_user svc ~user ~password ~clearance:low
  | B_legacy { users; _ } ->
      Hashtbl.replace users user (S.Password.hash ~salt:user password)

let login ?(load_class = 0) ?deadline_ns t ~user ~password ~program =
  let deadline_abs =
    match deadline_ns with Some d -> now t + d | None -> 0
  in
  let note_session pid =
    let ses =
      { ses_user = user; ses_pid = pid; ses_start_ns = now t;
        ses_deadline_ns = deadline_abs; ses_pending = 0; ses_remote = [];
        ses_settled_pages = 0; ses_shed = 0; ses_state = `Running }
    in
    Hashtbl.replace t.sh_sessions pid ses;
    t.sh_new <- ses :: t.sh_new;
    t.sh_logins <- t.sh_logins + 1;
    Ok pid
  in
  match t.sh_backend with
  | B_kernel { svc; _ } -> (
      match
        S.Answering_service.login ~load_class ?deadline_ns svc ~user ~password
          ~program
      with
      | Ok pid -> note_session pid
      | Error e ->
          t.sh_login_failures <- t.sh_login_failures + 1;
          Error
            (match e with
            | `Bad_password -> "bad password"
            | `No_such_user -> "no such user"
            | `Shed -> "shed"))
  | B_legacy { sup; users; acct } -> (
      match Hashtbl.find_opt users user with
      | Some h when S.Password.verify h password ->
          let pid =
            L.Old_supervisor.spawn sup
              ~principal:{ K.Acl.user; project = "users" }
              ~pname:(user ^ ".proc") program
          in
          S.Accounting.note_login acct ~user;
          note_session pid
      | Some _ | None ->
          t.sh_login_failures <- t.sh_login_failures + 1;
          S.Accounting.note_failure acct ~user;
          Error "bad password")

let session_done t ses =
  match t.sh_backend with
  | B_kernel { k; _ } -> (
      match (K.User_process.proc (K.Kernel.user_process k) ses.ses_pid)
              .K.User_process.pstate
      with
      | K.User_process.P_done | K.User_process.P_failed _ -> true
      | _ -> false)
  | B_legacy { sup; _ } -> (
      match L.Old_supervisor.proc_state sup ses.ses_pid with
      | L.Old_types.O_done | L.Old_types.O_failed _ -> true
      | _ -> false)

let logout t ses =
  (match t.sh_backend with
  | B_kernel { svc; _ } -> S.Answering_service.logout svc ~pid:ses.ses_pid
  | B_legacy { acct; _ } ->
      S.Accounting.note_usage acct ~user:ses.ses_user
        ~connect_ns:(now t - ses.ses_start_ns) ~cpu_ns:0 ~pages:0);
  if ses.ses_settled_pages > 0 then
    S.Accounting.note_settlement (accounting t) ~user:ses.ses_user
      ~pages:ses.ses_settled_pages;
  ses.ses_state <- `Closed

(* Pathname component for a remote key: the key is free-form (it came
   from a hash-ring lookup), the name manager's separator is not. *)
let sanitize key =
  String.map (fun c -> if c = '>' || c = ' ' then '_' else c) key

let rgate_usage t =
  let usage =
    match t.sh_backend with
    | B_kernel { k; _ } -> K.Kernel.quota_usage k ~path:">rgate"
    | B_legacy { sup; _ } -> L.Old_supervisor.quota_usage sup ~path:">rgate"
  in
  match usage with Some (used, _) -> used | None -> 0

let rgate_create ?(deadline = 0) t ~user ~session ~key ~words =
  let path = ">rgate>" ^ sanitize key in
  let before = rgate_usage t in
  (match t.sh_backend with
  | B_kernel { k; _ } ->
      (* The call runs under a request context carrying the caller's
         principal and end-to-end deadline across the wire: tracing
         attributes the pages to the remote user, and the deadline
         keeps propagating into anything the call spawns. *)
      let obs = K.Kernel.obs k in
      let prev = Obs.Sink.current obs in
      let ctx =
        Obs.Sink.new_ctx obs ~parent:0
          ?deadline:(if deadline > 0 then Some deadline else None)
          ~origin:user ()
      in
      Obs.Sink.set_current obs ctx;
      Obs.Sink.count obs "cluster.rgate_create";
      K.Kernel.create_file k ~path ~acl:open_acl ~label:low;
      if words > 0 then
        K.Kernel.load_program k ~path
          (List.init words (fun i -> Hw.Word.of_int (i + 1)));
      Obs.Sink.set_current obs prev
  | B_legacy { sup; _ } ->
      (* The legacy supervisor serves the same gate: the file appears,
         but there is no kernel write path to fill pages from outside a
         process — a MultiK shard is allowed to be different, the
         traffic is what must be identical. *)
      L.Old_supervisor.create_file sup ~path ~acl:open_acl);
  let pages = rgate_usage t - before in
  let lkey = (user, session) in
  (match Hashtbl.find_opt t.sh_ledger lkey with
  | Some r -> r := !r + pages
  | None -> Hashtbl.replace t.sh_ledger lkey (ref pages));
  pages

let rgate_settle t ~user ~session =
  match Hashtbl.find_opt t.sh_ledger (user, session) with
  | Some r ->
      Hashtbl.remove t.sh_ledger (user, session);
      !r
  | None -> 0

let ledger_pages t = Hashtbl.fold (fun _ r acc -> acc + !r) t.sh_ledger 0

let completed t =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.User_process.completed (K.Kernel.user_process k)
  | B_legacy { sup; _ } -> (L.Old_supervisor.stats sup).L.Old_types.st_completed

let failed t =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.User_process.failed (K.Kernel.user_process k)
  | B_legacy { sup; _ } -> (L.Old_supervisor.stats sup).L.Old_types.st_failed

let invariants t =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.Invariants.check k
  | B_legacy _ -> []

let frames_conserved t =
  match t.sh_backend with
  | B_kernel { k; _ } ->
      let pfm = K.Kernel.page_frame k in
      let used = ref 0 in
      K.Page_frame.iter_used pfm (fun ~frame:_ ~ptw_abs:_ -> incr used);
      !used + K.Page_frame.free_frames pfm = K.Page_frame.n_frames pfm
  | B_legacy _ -> true

let shutdown t =
  match t.sh_backend with
  | B_kernel { k; _ } -> K.Kernel.shutdown k
  | B_legacy _ -> ()

let disk_hash_of_machine (m : Hw.Machine.t) =
  let d = m.Hw.Machine.disk in
  let h = ref 0 in
  let mix v = h := (((!h * 31) + v + 1) lxor (!h lsr 17)) land max_int in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (index, (e : Hw.Disk.vtoc_entry)) ->
        mix index;
        mix e.Hw.Disk.uid;
        mix e.Hw.Disk.len_pages;
        Array.iter
          (fun handle ->
            mix handle;
            if handle >= 0 then
              Hw.Page_image.iter mix
                (Hw.Disk.read_record d
                   ~pack:(Hw.Disk.pack_of_handle handle)
                   ~record:(Hw.Disk.record_of_handle handle)))
          e.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !h

let disk_hash t = disk_hash_of_machine (machine t)
