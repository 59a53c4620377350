(* utility: the sharded computing utility.

   Four kernel machines behind the consistent-hash ring serve 100,000
   registered users.  Logins arrive open-loop in waves of 16 every 2 ms;
   each session computes briefly and creates a one-word segment under a
   ring key, which lands on another machine three times in four.  (A
   1,200-word segment costs 5.5 times the host time: 10,000 sessions
   took 10.4 s instead of 1.8 s.)  It is the only workload that runs
   the cluster layer (ring, link, barriers, Par quanta) and it does
   almost no disk I/O.

   The seed shuffles which user arrives when and places each login
   within the first 200 us of its wave.  No session carries a deadline,
   so nothing is shed.

   Cluster.run is one call, so the benchmark cannot see sessions end
   on the host clock; instead every [mark_every]-th login carries a
   marker event, at the login's own instant on the same machine, which
   notes the host time.  The markers change no simulated outcome: they
   add one event to an instant that already has one (and 200 to the
   event count of 834,523).

   A session's latency is read from its home machine's accounting: the
   connect time from login to logout, which covers the remote create
   and the settlement round trip.  It counts from the instant the login
   fired, which the home shard's session record keeps; the generator's
   lateness is how far that instant fell after the one the login was
   due at.  Logouts happen at barriers, on the link-latency grid, so
   without the in-wave offsets every latency would be a whole number of
   milliseconds. *)

module K = Multics_kernel
module C = Multics_cluster
module S = Multics_services
module Hw = Multics_hw

let shards = 4
let wave = 16
let wave_ns = 2_000_000
let wave_spread_ns = 200_000
let segment_words = 1
let ring_keys = 128
let mark_every = 500

let user i = Printf.sprintf "u%06d" i
let user_index name = int_of_string (String.sub name 1 (String.length name - 1))
let program = K.Workload.compute_bound ~steps:3 ~step_ns:60_000

let kernels c =
  List.init (C.Cluster.n_shards c) (fun i ->
      match C.Shard.kernel (C.Cluster.shard c i) with
      | Some k -> k
      | None -> invalid_arg "utility: every shard runs the kernel")

let prepare ~n ~seed =
  let c =
    Trace.with_span "cluster.create" (fun () ->
        C.Cluster.create
          (C.Cluster.config
             (List.init shards (fun _ ->
                  C.Cluster.Kernel_shard K.Kernel.default_config))))
  in
  Trace.with_span "cluster.register" (fun () ->
      for i = 0 to n - 1 do
        C.Cluster.register_user c ~user:(user i) ~password:"pw"
      done);
  fun () ->
    let rng = Random.State.make [| seed; 0x0717 |] in
    let before = List.map Kstats.of_kernel (kernels c) in
    let stream = Buffer.create (16 * n) in
    let due = Array.make n 0 in
    Phase.measure (fun () ->
        Trace.with_span "cluster.login_at" (fun () ->
            let order = Array.init n Fun.id in
            Openloop.shuffle rng order;
            for i = 0 to n - 1 do
              let u = order.(i) in
              let at =
                1_000_000 + (i / wave * wave_ns)
                + Random.State.int rng wave_spread_ns
              in
              Printf.bprintf stream "%d:%d;" at u;
              due.(u) <- at;
              let home = C.Cluster.shard c (C.Cluster.home_of c (user u)) in
              C.Cluster.login_at c ~at_ns:at
                ~remote_keys:[ Printf.sprintf "seg-%d" (i mod ring_keys) ]
                ~remote_words:segment_words ~user:(user u) ~password:"pw"
                program;
              if i mod mark_every = mark_every - 1 then
                Hw.Machine.schedule_at (C.Shard.machine home) ~time:at (fun () ->
                    Phase.mark ~ops:mark_every ())
            done);
        Trace.with_span "cluster.run" (fun () -> C.Cluster.run ~domains:1 c));
    let st = C.Cluster.stats c in
    let lateness = ref 0 in
    for i = 0 to shards - 1 do
      Hashtbl.iter
        (fun _ (ses : C.Shard.session) ->
          let u = user_index ses.C.Shard.ses_user in
          lateness := max !lateness (ses.C.Shard.ses_start_ns - due.(u)))
        (C.Cluster.shard c i).C.Shard.sh_sessions
    done;
    let latencies =
      List.init n (fun u ->
          let home = C.Cluster.shard c (C.Cluster.home_of c (user u)) in
          let r = S.Accounting.record_for (C.Shard.accounting home) ~user:(user u) in
          (* The connect time counts from the login's firing, which the
             lateness check holds to its due instant. *)
          r.S.Accounting.connect_ns)
    in
    let d =
      List.fold_left2
        (fun acc before k ->
          Kstats.add acc (Kstats.diff ~before ~after:(Kstats.of_kernel k)))
        Kstats.zero before (kernels c)
    in
    let closed = st.C.Cluster.st_sessions_closed in
    let check ok msg = if ok then [] else [ msg ] in
    let problems =
      check (st.C.Cluster.st_logins = n)
        (Printf.sprintf "%d logins of %d" st.C.Cluster.st_logins n)
      @ check (st.C.Cluster.st_shed = 0)
          (Printf.sprintf "%d remote creates shed" st.C.Cluster.st_shed)
      @ check
          (st.C.Cluster.st_settled_pages = st.C.Cluster.st_charged_pages)
          (Printf.sprintf "settled %d <> charged %d pages"
             st.C.Cluster.st_settled_pages st.C.Cluster.st_charged_pages)
      @ check (st.C.Cluster.st_ledger_pages = 0)
          (Printf.sprintf "%d pages left in shard ledgers"
             st.C.Cluster.st_ledger_pages)
      @ List.map
          (fun (shard, v) -> Printf.sprintf "shard %d: %s" shard v)
          (C.Cluster.invariants c)
      @ check (C.Cluster.frames_conserved c) "page frames not conserved"
    in
    let per v = Kstats.ratio v closed in
    let calls = st.C.Cluster.st_remote_calls + st.C.Cluster.st_local_calls in
    Round.make ~attempted:n ~completed:closed
      ~failed:(st.C.Cluster.st_login_failures + st.C.Cluster.st_failed)
      ~lateness_ns:!lateness ~latencies
      ~arrivals:(Round.digest_of_buffer stream) ~problems
      ~layers:
        (Kstats.layers d ~ops:closed
        @ [ ("cluster.barriers_per_op", per st.C.Cluster.st_barriers, "count/op");
            ("cluster.messages_per_op", per st.C.Cluster.st_messages, "count/op");
            ("cluster.remote_share",
             Kstats.ratio st.C.Cluster.st_remote_calls calls, "ratio") ])
      ~notes:
        (Kstats.bases d
        @ [ ("cluster.remote_share",
             Printf.sprintf "%d remote of %d creates" st.C.Cluster.st_remote_calls
               calls) ])
