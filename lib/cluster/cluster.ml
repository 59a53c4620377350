module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Obs = Multics_obs
module Par = Multics_par.Par

type shard_spec =
  | Kernel_shard of K.Kernel.config
  | Legacy_shard of L.Old_supervisor.config

type config = {
  shards : shard_spec list;
  rgate_quota : int;
  choice : Multics_choice.Choice.t option;
}

let config ?(rgate_quota = 64) ?choice shards =
  if shards = [] then invalid_arg "Cluster.config: no shards";
  { shards; rgate_quota; choice }

(* The one-way link latency, which is also the barrier quantum. *)
let quantum = 1_000_000

(* Runaway guard: [run] raises past this many barriers. *)
let max_barriers = 2_000_000

type t = {
  c_shards : Shard.t array;
  c_ring : Ring.t;
  c_link : Link.t;
  mutable c_now : int;
  mutable c_barriers : int;
  mutable c_closed : int;
  (* Open sessions under coordinator watch: (shard index, session),
     in drain order (shard-major, then login order). *)
  mutable c_active : (int * Shard.session) list;
  c_sink : Obs.Sink.t;
  c_time : int ref;
}

let create cfg =
  let shards =
    Array.of_list
      (List.mapi
         (fun i spec ->
           match spec with
           | Kernel_shard kc ->
               Shard.boot_kernel ~rgate_quota:cfg.rgate_quota kc i
           | Legacy_shard lc ->
               Shard.boot_legacy ~rgate_quota:cfg.rgate_quota lc i)
         cfg.shards)
  in
  let time = ref 0 in
  { c_shards = shards;
    c_ring = Ring.create ~shards:(Array.length shards) ();
    c_link = Link.create ~latency_ns:quantum ?choice:cfg.choice ();
    c_now = 0; c_barriers = 0; c_closed = 0; c_active = [];
    c_sink = Obs.Sink.create ~now:(fun () -> !time) ();
    c_time = time }

let n_shards t = Array.length t.c_shards
let shard t i = t.c_shards.(i)
let call_histo t = Obs.Sink.histo t.c_sink ~name:"cluster.call"
let home_of t key = Ring.shard_of t.c_ring key

let register_user t ~user ~password =
  Shard.register_user t.c_shards.(home_of t user) ~user ~password

(* Envelope sequence numbers: per-shard counter interleaved by shard
   id, so they are globally unique and independent of delivery order. *)
let mint t (sh : Shard.t) =
  let s = sh.Shard.sh_seq in
  sh.Shard.sh_seq <- s + 1;
  (s * Array.length t.c_shards) + sh.Shard.sh_id

let login_at t ~at_ns ?load_class ?deadline_ns ?(remote_keys = [])
    ?(remote_words = 1) ~user ~password program =
  let home = home_of t user in
  let sh = t.c_shards.(home) in
  let m = Shard.machine sh in
  let at = max at_ns (Hw.Machine.now m) in
  (* The whole handler runs inside the home shard's quantum: it may
     touch only this shard's state (sessions, counters, outbox) — the
     Par-farm safety contract. *)
  Hw.Machine.schedule_at m ~time:at (fun () ->
      match Shard.login sh ?load_class ?deadline_ns ~user ~password ~program with
      | Error _ -> ()
      | Ok pid ->
          let ses = Hashtbl.find sh.Shard.sh_sessions pid in
          let send = Shard.now sh in
          let deadline = ses.Shard.ses_deadline_ns in
          List.iter
            (fun key ->
              let dst = Ring.shard_of t.c_ring key in
              if dst = home then begin
                (* Same shard: a plain gate call, no network at all —
                   which is why a 1-shard cluster stays bit-identical
                   to a bare kernel. *)
                sh.Shard.sh_local_calls <- sh.Shard.sh_local_calls + 1;
                ignore
                  (Shard.rgate_create sh ~deadline ~user ~session:pid ~key
                     ~words:remote_words)
              end
              else begin
                sh.Shard.sh_remote_calls <- sh.Shard.sh_remote_calls + 1;
                ses.Shard.ses_pending <- ses.Shard.ses_pending + 1;
                Queue.add
                  { Link.e_src = home; e_dst = dst; e_seq = mint t sh;
                    e_send_ns = send; e_user = user; e_session = pid;
                    e_deadline_ns = deadline;
                    e_payload =
                      Link.Req (Link.R_create { key; words = remote_words }) }
                  sh.Shard.sh_outbox
              end)
            remote_keys)

(* Start settlement for a finished session, or log it out on the spot
   when nothing is owed anywhere else. *)
let begin_settlement t home (ses : Shard.session) =
  let sh = t.c_shards.(home) in
  (* Pages this session created at home settle synchronously — same
     shard, no message. *)
  let local =
    Shard.rgate_settle sh ~user:ses.Shard.ses_user ~session:ses.Shard.ses_pid
  in
  ses.Shard.ses_settled_pages <- ses.Shard.ses_settled_pages + local;
  let remotes =
    List.sort_uniq compare ses.Shard.ses_remote
  in
  if remotes = [] then Shard.logout sh ses
  else begin
    ses.Shard.ses_state <- `Settling;
    ses.Shard.ses_pending <- List.length remotes;
    List.iter
      (fun dst ->
        Link.post t.c_link
          { Link.e_src = home; e_dst = dst; e_seq = mint t sh;
            e_send_ns = t.c_now; e_user = ses.Shard.ses_user;
            e_session = ses.Shard.ses_pid; e_deadline_ns = 0;
            e_payload = Link.Req (Link.R_settle { pid = ses.Shard.ses_pid }) })
      remotes
  end

let handle_request t (e : Link.envelope) =
  let dst = t.c_shards.(e.Link.e_dst) in
  match e.Link.e_payload with
  | Link.Resp _ -> assert false
  | Link.Req (Link.R_create { key; words } as rq) ->
      let resp =
        if e.Link.e_deadline_ns > 0 && e.Link.e_deadline_ns < t.c_now then begin
          (* The deadline travelled the wire and expired in flight:
             shed here, exactly as PR 9 sheds at a local gate. *)
          dst.Shard.sh_shed <- dst.Shard.sh_shed + 1;
          Link.Timed_out
        end
        else
          Link.Ok_pages
            (Shard.rgate_create dst ~deadline:e.Link.e_deadline_ns
               ~user:e.Link.e_user ~session:e.Link.e_session ~key ~words)
      in
      Link.post t.c_link
        { e with
          Link.e_src = e.Link.e_dst; e_dst = e.Link.e_src;
          e_seq = mint t dst; e_send_ns = t.c_now;
          e_payload =
            Link.Resp { rq_send_ns = e.Link.e_send_ns; rq_req = rq;
                        r_resp = resp } }
  | Link.Req (Link.R_settle { pid } as rq) ->
      let pages =
        Shard.rgate_settle dst ~user:e.Link.e_user ~session:pid
      in
      Link.post t.c_link
        { e with
          Link.e_src = e.Link.e_dst; e_dst = e.Link.e_src;
          e_seq = mint t dst; e_send_ns = t.c_now;
          e_payload =
            Link.Resp { rq_send_ns = e.Link.e_send_ns; rq_req = rq;
                        r_resp = Link.Ok_pages pages } }

let handle_response t (e : Link.envelope) rq_send_ns rq_req r_resp =
  let home = t.c_shards.(e.Link.e_dst) in
  match Hashtbl.find_opt home.Shard.sh_sessions e.Link.e_session with
  | None -> ()
  | Some ses ->
      ses.Shard.ses_pending <- ses.Shard.ses_pending - 1;
      Obs.Sink.add_latency t.c_sink ~name:"cluster.call" (t.c_now - rq_send_ns);
      (match rq_req, r_resp with
      | Link.R_create _, Link.Ok_pages _ ->
          ses.Shard.ses_remote <- e.Link.e_src :: ses.Shard.ses_remote
      | Link.R_create _, Link.Timed_out ->
          ses.Shard.ses_shed <- ses.Shard.ses_shed + 1;
          Obs.Sink.count t.c_sink "cluster.shed"
      | Link.R_settle _, Link.Ok_pages p ->
          ses.Shard.ses_settled_pages <- ses.Shard.ses_settled_pages + p
      | Link.R_settle _, Link.Timed_out -> ());
      if ses.Shard.ses_state = `Settling && ses.Shard.ses_pending = 0 then
        Shard.logout home ses

let deliver t e =
  match e.Link.e_payload with
  | Link.Req _ -> handle_request t e
  | Link.Resp { rq_send_ns; rq_req; r_resp } ->
      handle_response t e rq_send_ns rq_req r_resp

let outboxes_empty t =
  Array.for_all (fun s -> Queue.is_empty s.Shard.sh_outbox) t.c_shards

let busy t =
  Array.exists (fun s -> not (Shard.quiescent s)) t.c_shards
  || Link.in_flight t.c_link > 0
  || (not (outboxes_empty t))
  || t.c_active <> []

(* The next simulated instant at which anything can happen: a shard
   event or a message arrival.  Computed from global state between
   barriers, so it is identical at any domain count. *)
let next_instant t =
  let best = ref None in
  let consider = function
    | None -> ()
    | Some v ->
        (match !best with
        | None -> best := Some v
        | Some b -> if v < b then best := Some v)
  in
  Array.iter (fun s -> consider (Shard.next_event s)) t.c_shards;
  consider (Link.next_arrival t.c_link);
  !best

let run ?(domains = 1) t =
  let n = Array.length t.c_shards in
  while busy t do
    if t.c_barriers >= max_barriers then
      failwith "Cluster.run: barrier limit exceeded";
    (* Fast-forward quiet stretches: jump to the quantum-grid point
       covering the next event, so the grid (and hence delivery
       timing) never depends on how long the system idled. *)
    let barrier =
      let default = t.c_now + quantum in
      match next_instant t with
      | None -> default
      | Some m ->
          if m <= default then default
          else
            t.c_now
            + (quantum * ((m - t.c_now + quantum - 1) / quantum))
    in
    (* Phase 1 — every shard runs its own events up to the barrier,
       farmed over domains.  Shard quanta touch only shard-local
       state, so this is the conservative-PDES step. *)
    ignore
      (Par.run ~domains ~tasks:n (fun i ->
           Shard.run_until t.c_shards.(i) ~time:barrier));
    t.c_now <- barrier;
    t.c_time := barrier;
    t.c_barriers <- t.c_barriers + 1;
    (* Phase 2 — coordinator, sequential and deterministic from here:
       adopt sessions born this quantum (shard order, login order) ... *)
    Array.iteri
      (fun i s ->
        if s.Shard.sh_new <> [] then begin
          let born = List.rev_map (fun ses -> (i, ses)) s.Shard.sh_new in
          s.Shard.sh_new <- [];
          t.c_active <- t.c_active @ born
        end)
      t.c_shards;
    (* ... drain outboxes into the fabric (shard order, send order) ... *)
    Array.iter
      (fun s ->
        while not (Queue.is_empty s.Shard.sh_outbox) do
          Link.post t.c_link (Queue.pop s.Shard.sh_outbox)
        done)
      t.c_shards;
    (* ... deliver everything that has arrived, in the fabric's
       (choice-controlled) order ... *)
    List.iter (deliver t) (Link.deliver_ready t.c_link ~now:barrier);
    (* ... and close the books on sessions whose process finished and
       whose remote calls have all come home. *)
    t.c_active <-
      List.filter
        (fun (i, ses) ->
          (match ses.Shard.ses_state with
          | `Running
            when ses.Shard.ses_pending = 0
                 && Shard.session_done t.c_shards.(i) ses ->
              begin_settlement t i ses
          | _ -> ());
          if ses.Shard.ses_state = `Closed then begin
            t.c_closed <- t.c_closed + 1;
            false
          end
          else true)
        t.c_active
  done

type stats = {
  st_logins : int;
  st_login_failures : int;
  st_sessions_closed : int;
  st_remote_calls : int;
  st_local_calls : int;
  st_shed : int;
  st_messages : int;
  st_settled_pages : int;
  st_charged_pages : int;
  st_ledger_pages : int;
  st_completed : int;
  st_failed : int;
  st_barriers : int;
  st_makespan_ns : int;
  st_per_shard_logins : int array;
}

let stats t =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.c_shards in
  { st_logins = sum (fun s -> s.Shard.sh_logins);
    st_login_failures = sum (fun s -> s.Shard.sh_login_failures);
    st_sessions_closed = t.c_closed;
    st_remote_calls = sum (fun s -> s.Shard.sh_remote_calls);
    st_local_calls = sum (fun s -> s.Shard.sh_local_calls);
    st_shed = sum (fun s -> s.Shard.sh_shed);
    st_messages = Link.messages t.c_link;
    st_settled_pages =
      sum (fun s ->
          Multics_services.Accounting.total_remote_pages (Shard.accounting s));
    st_charged_pages = sum Shard.rgate_usage;
    st_ledger_pages = sum Shard.ledger_pages;
    st_completed = sum Shard.completed;
    st_failed = sum Shard.failed;
    st_barriers = t.c_barriers;
    st_makespan_ns = t.c_now;
    st_per_shard_logins =
      Array.map (fun s -> s.Shard.sh_logins) t.c_shards }

let invariants t =
  Array.to_list t.c_shards
  |> List.concat_map (fun s ->
         List.map (fun v -> (s.Shard.sh_id, v)) (Shard.invariants s))

let frames_conserved t = Array.for_all Shard.frames_conserved t.c_shards
let shutdown t = Array.iter Shard.shutdown t.c_shards

let fingerprint t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "barrier=%d msgs=%d;" t.c_now
                         (Link.messages t.c_link));
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf " s%d:%d:%x" s.Shard.sh_id (Shard.now s)
           (Shard.disk_hash s)))
    t.c_shards;
  Buffer.contents b
