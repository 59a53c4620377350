(* C7: the computing utility at cluster scale.

   Multics was sold as a utility: one service a whole city of users
   logs into.  This section drives the sharded cluster layer the way
   the Answering Service bench drives one machine — but across N
   simulated machines behind the consistent-hash ring, with every
   cross-shard call riding the link fabric.

     C7a  a 1-shard cluster must be bit-identical (clock and disk) to
          a bare kernel given the same traffic — the cluster layer,
          like tracing (C3), is free when it is not needed
     C7b  the headline: 10^5 registered users in bursty waves across
          4 machines — logins/s, cross-shard round-trip p50/p95,
          per-shard load skew, and the conservation law (every page
          charged remotely settles home exactly once)
     C7c  the same workload is byte-identical farmed over 1 vs 4
          domains: conservative-PDES barriers make the domain count
          invisible
     C7d  MultiK: a legacy-supervisor shard serves next to three
          kernel shards under the identical traffic mix

   Deterministic by construction: every metric except the wall-clock
   rows (units ending in "_wall") is a pure function of the workload,
   so CI byte-diffs the rest of BENCH_cluster_c7.json across double
   runs. *)

module K = Multics_kernel
module L = Multics_legacy
module S = Multics_services
module Hw = Multics_hw
module Obs = Multics_obs
module C = Multics_cluster

let sec = "C7"
let fail fmt = Printf.ksprintf failwith fmt

let prog () = K.Workload.compute_bound ~steps:3 ~step_ns:60_000

(* ------------------------------------------------------------------ *)
(* C7a: one shard is a bare kernel. *)

let identity_sessions =
  [ ("alice", 1_000_000, [ "report"; "ledger" ]);
    ("bob", 1_500_000, [ "mail" ]);
    ("carol", 3_200_000, [ "stats"; "draft" ]) ]

let identity_words = 1_200

let bit_identity () =
  Format.printf "C7a  1-shard cluster vs bare kernel (bit-identity):@.";
  let clustered =
    let c =
      C.Cluster.create
        (C.Cluster.config [ C.Cluster.Kernel_shard K.Kernel.small_config ])
    in
    List.iter
      (fun (user, _, _) -> C.Cluster.register_user c ~user ~password:"pw")
      identity_sessions;
    List.iter
      (fun (user, at, keys) ->
        C.Cluster.login_at c ~at_ns:at ~remote_keys:keys
          ~remote_words:identity_words ~user ~password:"pw" (prog ()))
      identity_sessions;
    C.Cluster.run c;
    let st = C.Cluster.stats c in
    if st.C.Cluster.st_remote_calls <> 0 then
      fail "bench_cluster: C7a sent %d messages on one shard"
        st.C.Cluster.st_remote_calls;
    C.Cluster.shutdown c;
    let s = C.Cluster.shard c 0 in
    (C.Shard.now s, C.Shard.disk_hash s)
  in
  let bare =
    let k = K.Kernel.boot K.Kernel.small_config in
    K.Kernel.mkdir k ~path:">home" ~acl:Bench_util.open_acl
      ~label:Bench_util.low;
    K.Kernel.mkdir k ~path:">rgate" ~acl:Bench_util.open_acl
      ~label:Bench_util.low;
    K.Kernel.set_quota k ~path:">rgate" ~limit:64;
    let svc =
      S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
    in
    List.iter
      (fun (user, _, _) ->
        S.Answering_service.register_user svc ~user ~password:"pw"
          ~clearance:Bench_util.low)
      identity_sessions;
    let m = K.Kernel.machine k in
    List.iter
      (fun (user, at, keys) ->
        Hw.Machine.schedule_at m ~time:(max at (Hw.Machine.now m)) (fun () ->
            match
              S.Answering_service.login ~load_class:0 svc ~user ~password:"pw"
                ~program:(prog ())
            with
            | Error _ -> ()
            | Ok _pid ->
                List.iter
                  (fun key ->
                    let path = ">rgate>" ^ key in
                    K.Kernel.create_file k ~path ~acl:Bench_util.open_acl
                      ~label:Bench_util.low;
                    K.Kernel.load_program k ~path
                      (List.init identity_words (fun i ->
                           Hw.Word.of_int (i + 1))))
                  keys))
      identity_sessions;
    K.Kernel.run k;
    K.Kernel.shutdown k;
    (K.Kernel.now k, C.Shard.disk_hash_of_machine m)
  in
  let (ct, cd), (bt, bd) = (clustered, bare) in
  Bench_util.row2 "final clock (ns)" (string_of_int ct) (string_of_int bt);
  Bench_util.row2 "disk hash" (Printf.sprintf "%x" cd)
    (Printf.sprintf "%x" bd);
  if (ct, cd) <> (bt, bd) then
    fail "bench_cluster: C7a 1-shard cluster diverged from the bare kernel";
  Format.printf "  bit-identical.@.@.";
  Bench_util.recordi ~section:sec ~metric:"one_shard_bit_identical"
    ~unit:"bool" 1

(* ------------------------------------------------------------------ *)
(* The shared driver: [n] users in waves of [wave] every [wave_ns],
   each session computing locally and creating one segment whose key
   the ring scatters across the cluster.  Every [shed_every]-th user
   carries a deadline the link cannot meet, so the overload plane's
   shedding is exercised across the wire. *)

let drive ?(domains = 1) ?(wave = 16) ?(wave_ns = 2_000_000)
    ?(shed_every = 0) ~users shards =
  let c = C.Cluster.create (C.Cluster.config shards) in
  for i = 0 to users - 1 do
    C.Cluster.register_user c ~user:(Printf.sprintf "u%06d" i) ~password:"pw"
  done;
  let p = prog () in
  for i = 0 to users - 1 do
    let deadline_ns =
      if shed_every > 0 && i mod shed_every = 0 then Some 500_000 else None
    in
    C.Cluster.login_at c
      ~at_ns:(1_000_000 + (i / wave * wave_ns))
      ?deadline_ns
      ~remote_keys:[ Printf.sprintf "seg-%d" (i mod 128) ]
      ~user:(Printf.sprintf "u%06d" i) ~password:"pw" p
  done;
  C.Cluster.run ~domains c;
  c

let conservation st =
  if st.C.Cluster.st_settled_pages <> st.C.Cluster.st_charged_pages then
    fail "bench_cluster: settled %d <> charged %d"
      st.C.Cluster.st_settled_pages st.C.Cluster.st_charged_pages;
  if st.C.Cluster.st_ledger_pages <> 0 then
    fail "bench_cluster: %d pages stranded in shard ledgers"
      st.C.Cluster.st_ledger_pages

(* ------------------------------------------------------------------ *)
(* C7b: the million-user-scale headline. *)

let n_users_c7b = 100_000

let utility () =
  Format.printf "C7b  %d users, bursty waves, 4 kernel shards:@." n_users_c7b;
  let t0 = Unix.gettimeofday () in
  let c =
    drive ~shed_every:50 ~users:n_users_c7b
      (List.init 4 (fun _ -> C.Cluster.Kernel_shard K.Kernel.default_config))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let st = C.Cluster.stats c in
  if st.C.Cluster.st_sessions_closed <> n_users_c7b then
    fail "bench_cluster: C7b closed %d of %d sessions"
      st.C.Cluster.st_sessions_closed n_users_c7b;
  conservation st;
  if C.Cluster.invariants c <> [] then
    fail "bench_cluster: C7b kernel invariants violated";
  if not (C.Cluster.frames_conserved c) then
    fail "bench_cluster: C7b leaked page frames";
  let h = C.Cluster.call_histo c in
  let p50 = Obs.Histo.percentile h ~pct:50 in
  let p95 = Obs.Histo.percentile h ~pct:95 in
  let logins = Array.fold_left ( + ) 0 st.C.Cluster.st_per_shard_logins in
  let skew =
    float_of_int
      (Array.fold_left max 0 st.C.Cluster.st_per_shard_logins)
    /. (float_of_int logins /. 4.0)
  in
  Format.printf
    "  %d logins (%d shed remote creates), %d messages, %d barriers@."
    st.C.Cluster.st_logins st.C.Cluster.st_shed st.C.Cluster.st_messages
    st.C.Cluster.st_barriers;
  Format.printf "  makespan %.1f s simulated, %.1f s wall (%.0f logins/s)@."
    (float_of_int st.C.Cluster.st_makespan_ns /. 1e9)
    wall
    (float_of_int st.C.Cluster.st_logins /. wall);
  Format.printf "  cross-shard RTT p50 %.2f ms, p95 %.2f ms; load skew %.3fx@.@."
    (float_of_int p50 /. 1e6)
    (float_of_int p95 /. 1e6)
    skew;
  Bench_util.recordi ~section:sec ~metric:"users" ~unit:"count" n_users_c7b;
  Bench_util.recordi ~section:sec ~metric:"shards" ~unit:"count" 4;
  Bench_util.recordi ~section:sec ~metric:"sessions_closed" ~unit:"count"
    st.C.Cluster.st_sessions_closed;
  Bench_util.recordi ~section:sec ~metric:"remote_calls" ~unit:"count"
    st.C.Cluster.st_remote_calls;
  Bench_util.recordi ~section:sec ~metric:"local_calls" ~unit:"count"
    st.C.Cluster.st_local_calls;
  Bench_util.recordi ~section:sec ~metric:"remote_sheds" ~unit:"count"
    st.C.Cluster.st_shed;
  Bench_util.recordi ~section:sec ~metric:"messages" ~unit:"count"
    st.C.Cluster.st_messages;
  Bench_util.recordi ~section:sec ~metric:"settled_pages" ~unit:"pages"
    st.C.Cluster.st_settled_pages;
  Bench_util.recordi ~section:sec ~metric:"barriers" ~unit:"count"
    st.C.Cluster.st_barriers;
  Bench_util.recordi ~section:sec ~metric:"makespan"
    st.C.Cluster.st_makespan_ns;
  Bench_util.recordi ~section:sec ~metric:"call_p50" p50;
  Bench_util.recordi ~section:sec ~metric:"call_p95" p95;
  Bench_util.record ~section:sec ~metric:"load_skew" ~unit:"x" skew;
  Bench_util.record ~section:sec ~metric:"logins_per_s_rate"
    ~unit:"logins/s_wall"
    (float_of_int st.C.Cluster.st_logins /. wall);
  Bench_util.record ~section:sec ~metric:"wall_rate" ~unit:"s_wall" wall

(* ------------------------------------------------------------------ *)
(* C7c: domain-count independence at cluster scale. *)

let pdes_identity () =
  Format.printf "C7c  byte-identity farmed over 1 vs 4 domains:@.";
  let shards () =
    List.init 4 (fun _ -> C.Cluster.Kernel_shard K.Kernel.default_config)
  in
  let fp domains =
    let c = drive ~domains ~users:2_000 (shards ()) in
    let st = C.Cluster.stats c in
    conservation st;
    C.Cluster.shutdown c;
    (C.Cluster.fingerprint c, st)
  in
  let fp1, st1 = fp 1 in
  let fp4, st4 = fp 4 in
  if fp1 <> fp4 || st1 <> st4 then
    fail "bench_cluster: C7c diverged between domains 1 and 4";
  Format.printf "  identical: %s@.@." fp1;
  Bench_util.recordi ~section:sec ~metric:"pdes_domains_identical"
    ~unit:"bool" 1

(* ------------------------------------------------------------------ *)
(* C7d: a legacy shard in the cluster, MultiK-style. *)

let multik () =
  Format.printf "C7d  heterogeneous: 3 kernel shards + 1 legacy shard:@.";
  (* The legacy supervisor never recycles process slots, so its
     lifetime capacity is its process table: the population is sized
     so the ring's share for the legacy member stays under it. *)
  let c =
    drive ~users:40
      [ C.Cluster.Kernel_shard K.Kernel.default_config;
        C.Cluster.Kernel_shard K.Kernel.default_config;
        C.Cluster.Kernel_shard K.Kernel.default_config;
        C.Cluster.Legacy_shard L.Old_supervisor.default_config ]
  in
  let st = C.Cluster.stats c in
  if st.C.Cluster.st_sessions_closed <> 40 then
    fail "bench_cluster: C7d closed %d of 40 sessions"
      st.C.Cluster.st_sessions_closed;
  conservation st;
  let legacy_logins = st.C.Cluster.st_per_shard_logins.(3) in
  Format.printf "  per-shard logins: %s (legacy shard served %d)@.@."
    (String.concat " "
       (Array.to_list (Array.map string_of_int st.C.Cluster.st_per_shard_logins)))
    legacy_logins;
  Bench_util.recordi ~section:sec ~metric:"multik_sessions" ~unit:"count"
    st.C.Cluster.st_sessions_closed;
  Bench_util.recordi ~section:sec ~metric:"multik_legacy_share" ~unit:"count"
    legacy_logins

let run () =
  Bench_util.section sec
    "computing utility: sharded cluster, million-user bench";
  bit_identity ();
  utility ();
  pdes_identity ();
  multik ();
  Bench_util.write_section_metrics ~section:sec ~path:"BENCH_cluster_c7.json"
