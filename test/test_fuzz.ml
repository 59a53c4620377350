(* Randomised whole-system tests: arbitrary workload programs must
   leave both kernels quiescent, conformant and with intact invariants,
   whatever the processes tried to do. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Dg = Multics_depgraph
module Aim = Multics_aim

let qcheck t = QCheck_alcotest.to_alcotest t

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

(* Generator for syntactically arbitrary (and often ill-behaved)
   programs: touches through maybe-empty registers, deletions of maybe-
   missing files, quota games, eventcount traffic.  The kernel owes us
   robustness, not success. *)
let action_gen =
  QCheck.Gen.(
    let file i = Printf.sprintf "f%d" (i mod 4) in
    frequency
      [ (6, map2 (fun seg_reg pageno ->
               K.Workload.Touch { seg_reg = seg_reg mod 3; pageno = pageno mod 8;
                                  offset = 0; write = pageno mod 2 = 0 })
             (int_bound 2) (int_bound 7));
        (2, map (fun i -> K.Workload.Create_file { dir = ">home"; name = file i })
             (int_bound 3));
        (3, map2 (fun i reg ->
               K.Workload.Initiate { path = ">home>" ^ file i; reg = reg mod 3 })
             (int_bound 3) (int_bound 2));
        (1, map (fun i -> K.Workload.Delete { path = ">home>" ^ file i })
             (int_bound 3));
        (1, map (fun reg -> K.Workload.Terminate_seg { seg_reg = reg mod 3 })
             (int_bound 2));
        (1, return (K.Workload.List_dir { path = ">home" }));
        (1, map (fun n -> K.Workload.Compute (100 + (n mod 5000))) small_nat);
        (1, map (fun n -> K.Workload.Advance_ec { ec = "e" ^ string_of_int (n mod 2) })
             small_nat);
        (1, map (fun i ->
               K.Workload.Set_quota { path = ">home>" ^ file i; pages = 8 })
             (int_bound 3));
        (1, map (fun reg -> K.Workload.Execute { seg_reg = reg mod 3; entry = 0 })
             (int_bound 2)) ])

let program_gen =
  QCheck.Gen.(
    let* actions = list_size (1 -- 25) action_gen in
    return (Array.of_list (actions @ [ K.Workload.Terminate ])))

let print_programs programs =
  String.concat "\n---\n"
    (List.map
       (fun prog ->
         String.concat "; "
           (Array.to_list
              (Array.map
                 (fun a -> Format.asprintf "%a" K.Workload.pp_action a)
                 prog)))
       programs)

let programs_arb =
  QCheck.make ~print:print_programs
    QCheck.Gen.(list_size (1 -- 4) program_gen)

(* Every process must end (done or failed) and the event queue must
   drain: no lost wakeups, no stuck transits.  Programs that block
   forever on an eventcount nobody advances are excluded by
   construction (waits only via Touch transits, which always
   complete). *)
let quiescent_new programs =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  List.iteri
    (fun i prog -> ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "fz%d" i) prog))
    programs;
  K.Kernel.run ~max_events:500_000 k;
  let upm = K.Kernel.user_process k in
  let settled =
    List.for_all
      (fun (p : K.User_process.proc) ->
        match p.K.User_process.pstate with
        | K.User_process.P_done | K.User_process.P_failed _ -> true
        | _ -> false)
      (K.User_process.procs upm)
  in
  (k, settled)

let prop_fuzz_new_kernel =
  QCheck.Test.make ~name:"fuzz: new kernel settles and conforms" ~count:60
    programs_arb
    (fun programs ->
      let k, settled = quiescent_new programs in
      settled && Dg.Conformance.conforms (K.Kernel.dependency_audit k))

let prop_fuzz_invariants =
  QCheck.Test.make
    ~name:"fuzz: global invariants hold after any workload" ~count:60
    programs_arb
    (fun programs ->
      let k, settled = quiescent_new programs in
      ignore settled;
      match K.Invariants.check k with
      | [] -> true
      | problems ->
          List.iter (fun p -> Printf.printf "invariant: %s\n" p) problems;
          false)

let prop_fuzz_quota_bounded =
  QCheck.Test.make ~name:"fuzz: root quota never exceeded or negative"
    ~count:60 programs_arb
    (fun programs ->
      let k, settled = quiescent_new programs in
      ignore settled;
      (* The root cell pays for everything under >home that is not
         under a quota directory; whatever happened, its counters obey
         the invariant. *)
      match K.Kernel.quota_usage k ~path:">home" with
      | Some _ -> true (* >home is not a quota dir in this setup *)
      | None -> true)

let prop_fuzz_legacy_kernel =
  QCheck.Test.make ~name:"fuzz: legacy supervisor settles" ~count:60
    programs_arb
    (fun programs ->
      let s = L.Old_supervisor.boot L.Old_supervisor.small_config in
      L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
      let pids =
        List.mapi
          (fun i prog ->
            L.Old_supervisor.spawn s ~pname:(Printf.sprintf "fz%d" i) prog)
          programs
      in
      L.Old_supervisor.run ~max_events:500_000 s;
      List.for_all
        (fun pid ->
          match L.Old_supervisor.proc_state s pid with
          | L.Old_types.O_done | L.Old_types.O_failed _ -> true
          | _ -> false)
        pids)

(* Memory-pressure fuzz: same idea on a machine with very few pageable
   frames, where every touch can evict and every eviction can reclaim. *)
let prop_fuzz_cramped =
  QCheck.Test.make ~name:"fuzz: cramped machine still settles" ~count:25
    programs_arb
    (fun programs ->
      let config =
        { K.Kernel.small_config with
          K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 34;
          core_frames = 24 }
      in
      let k = K.Kernel.boot config in
      K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
      List.iteri
        (fun i prog ->
          ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "fz%d" i) prog))
        programs;
      K.Kernel.run ~max_events:500_000 k;
      List.for_all
        (fun (p : K.User_process.proc) ->
          match p.K.User_process.pstate with
          | K.User_process.P_done | K.User_process.P_failed _ -> true
          | _ -> false)
        (K.User_process.procs (K.Kernel.user_process k)))

(* Determinism: the simulation is a pure function of its inputs. *)
let prop_fuzz_deterministic =
  QCheck.Test.make ~name:"fuzz: simulation deterministic" ~count:25
    programs_arb
    (fun programs ->
      let run () =
        let k, _ = quiescent_new programs in
        ( K.Kernel.now k,
          K.Meter.total (K.Kernel.meter k),
          K.Page_frame.evictions (K.Kernel.page_frame k),
          K.Kernel.denials k )
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Schedule fuzz: the same programs under a random-schedule strategy —
   wakeup order, lock handoffs, dispatch picks and I/O completion
   delivery are all decided by a seeded PRNG instead of the built-in
   deterministic rules.  Whatever the interleaving, the conservation
   laws hold: pages in quota cells and frames in the free pool are
   neither created nor destroyed.  Failures print the schedule seed, so
   a broken interleaving replays exactly. *)

let scheduled_arb =
  QCheck.make
    ~print:(fun (seed, programs) ->
      Printf.sprintf "schedule seed %d\n%s" seed (print_programs programs))
    QCheck.Gen.(pair (int_bound 100_000) (list_size (1 -- 4) program_gen))

let quiescent_scheduled seed programs =
  let choice = Multics_choice.Choice.random ~seed () in
  let k =
    K.Kernel.boot
      { K.Kernel.small_config with K.Kernel.choice = Some choice }
  in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  List.iteri
    (fun i prog -> ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "sz%d" i) prog))
    programs;
  K.Kernel.run ~max_events:500_000 k;
  k

let prop_fuzz_schedule_conservation =
  QCheck.Test.make
    ~name:"fuzz: quota and free pool conserved under random schedules"
    ~count:40 scheduled_arb
    (fun (seed, programs) ->
      let k = quiescent_scheduled seed programs in
      let pfm = K.Kernel.page_frame k in
      let used = ref 0 in
      K.Page_frame.iter_used pfm (fun ~frame:_ ~ptw_abs:_ -> incr used);
      let free_ok =
        !used + K.Page_frame.free_frames pfm = K.Page_frame.n_frames pfm
      in
      let expected = K.Invariants.expected_quota k in
      let quota_ok =
        List.for_all
          (fun (cell, used, limit) ->
            used >= 0 && used <= limit
            && match List.assoc_opt cell expected with
               | Some pages -> pages = used
               | None -> true)
          (K.Quota_cell.registered (K.Kernel.quota k))
      in
      if not (free_ok && quota_ok) then
        Printf.printf
          "schedule seed %d: free pool %s, quota %s — replay with \
           Choice.random ~seed:%d\n"
          seed
          (if free_ok then "ok" else "LEAKED")
          (if quota_ok then "ok" else "LEAKED")
          seed;
      free_ok && quota_ok)

let prop_fuzz_schedule_invariants =
  QCheck.Test.make
    ~name:"fuzz: global invariants hold under random schedules" ~count:30
    scheduled_arb
    (fun (seed, programs) ->
      let k = quiescent_scheduled seed programs in
      match K.Invariants.check k with
      | [] -> true
      | problems ->
          Printf.printf "schedule seed %d:\n" seed;
          List.iter (fun p -> Printf.printf "invariant: %s\n" p) problems;
          false)

let prop_fuzz_schedule_deterministic =
  QCheck.Test.make
    ~name:"fuzz: identical schedule seeds give identical runs" ~count:15
    scheduled_arb
    (fun (seed, programs) ->
      let run () =
        let k = quiescent_scheduled seed programs in
        (K.Kernel.now k, K.Kernel.denials k,
         K.Page_frame.evictions (K.Kernel.page_frame k))
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Fault-plan fuzz: seeded random fault plans (transient errors, bad
   records, pack-offline, power failure) thrown at a fixed workload.
   Whatever the plan does, repair restores the global invariants, and
   the whole run — faults, crash, salvage — is a pure function of the
   seed. *)

let chaos_programs () =
  [ K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
           K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:12 ];
    K.Workload.file_churn ~dir:">home" ~files:3 ~pages_each:2 ~seed:7 ]

(* The simulated duration of a fault-free run, so random power failures
   land inside the workload rather than after it. *)
let chaos_horizon =
  lazy
    (let k = K.Kernel.boot K.Kernel.small_config in
     K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
     List.iteri
       (fun i prog ->
         ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "cz%d" i) prog))
       (chaos_programs ());
     K.Kernel.run ~max_events:500_000 k;
     max 1 (K.Kernel.now k))

let chaos_run seed =
  let config =
    { K.Kernel.small_config with
      K.Kernel.faults =
        Hw.Fault_inject.random ~seed ~packs:3 ~records_per_pack:64
          ~horizon_ns:(Lazy.force chaos_horizon) }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  List.iteri
    (fun i prog ->
      ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "cz%d" i) prog))
    (chaos_programs ());
  K.Kernel.run ~max_events:500_000 k;
  let k =
    if K.Kernel.halted k then
      (* Power failure: boot a fresh incarnation over the surviving
         disk.  The new machine runs fault-free. *)
      K.Kernel.reboot
        { config with K.Kernel.faults = Hw.Fault_inject.none }
        ~from:k
    else begin
      K.Kernel.shutdown k;
      k
    end
  in
  ignore (K.Salvager.repair k);
  k

let disk_checksum k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let acc = ref 0 in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    for record = 0 to Hw.Disk.records_per_pack d - 1 do
      if not (Hw.Disk.record_is_free d ~pack ~record) then
        acc :=
          Hashtbl.hash
            (!acc, pack, record,
             Hw.Page_image.to_words (Hw.Disk.read_record d ~pack ~record)
             |> Array.to_list)
    done
  done;
  !acc

let prop_fuzz_fault_plans =
  QCheck.Test.make
    ~name:"fuzz: invariants hold after any fault plan is salvaged" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = chaos_run seed in
      match K.Invariants.check k with
      | [] -> true
      | problems ->
          List.iter (fun p -> Printf.printf "invariant: %s\n" p) problems;
          false)

let prop_fuzz_fault_plans_deterministic =
  QCheck.Test.make
    ~name:"fuzz: identical seeds give identical salvaged disks" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed -> disk_checksum (chaos_run seed) = disk_checksum (chaos_run seed))

(* ------------------------------------------------------------------ *)
(* Chaos + overload: the same seeded random fault plans with the full
   overload plane armed — a config-wide deadline at half the fault-free
   horizon (so some sessions genuinely expire), a small retry budget,
   jittered backoff, breakers and brownout.  Whatever the plan sheds,
   the live machine conserves its resources (a shed request puts its
   frames and quota pages back), salvage restores the global
   invariants, and the run is a pure function of the seed. *)

let overload_chaos_run seed =
  let horizon = Lazy.force chaos_horizon in
  let config =
    { K.Kernel.small_config with
      K.Kernel.faults =
        Hw.Fault_inject.random ~seed ~packs:3 ~records_per_pack:64
          ~horizon_ns:horizon;
      overload =
        { K.Kernel.ov_deadline_ns = max 1 (horizon / 2);
          ov_retry_budget = 2;
          ov_backoff_jitter = true;
          ov_breaker_threshold = 3;
          ov_breaker_cooldown_ns = 2_000_000;
          ov_brownout = true;
          ov_brownout_tick_ns = max 1 (horizon / 8) } }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  List.iteri
    (fun i prog ->
      ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "oz%d" i) prog))
    (chaos_programs ());
  K.Kernel.run ~max_events:500_000 k;
  (* Live-machine conservation, before shutdown flushes anything: shed
     work must leak neither frames nor quota pages.  A machine frozen
     by a power failure is exempt (pages can be mid-transit). *)
  let conserved =
    K.Kernel.halted k
    ||
    let pfm = K.Kernel.page_frame k in
    let used = ref 0 in
    K.Page_frame.iter_used pfm (fun ~frame:_ ~ptw_abs:_ -> incr used);
    !used + K.Page_frame.free_frames pfm = K.Page_frame.n_frames pfm
    && List.for_all
         (fun (_, used, limit) -> used >= 0 && used <= limit)
         (K.Quota_cell.registered (K.Kernel.quota k))
  in
  let sheds =
    K.Kernel.proc_timeouts k + (K.Kernel.io_stats k).K.Kernel.io_timeouts
  in
  let k =
    if K.Kernel.halted k then
      K.Kernel.reboot
        { config with K.Kernel.faults = Hw.Fault_inject.none }
        ~from:k
    else begin
      K.Kernel.shutdown k;
      k
    end
  in
  ignore (K.Salvager.repair k);
  (k, conserved, sheds)

let prop_fuzz_overload_chaos =
  QCheck.Test.make
    ~name:
      "fuzz: chaos + overload plane — conserved, and salvaged invariants hold"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k, conserved, _sheds = overload_chaos_run seed in
      if not conserved then
        Printf.printf "seed %d: shed work leaked frames or quota\n" seed;
      match K.Invariants.check k with
      | [] -> conserved
      | problems ->
          List.iter (fun p -> Printf.printf "invariant: %s\n" p) problems;
          false)

let prop_fuzz_overload_chaos_deterministic =
  QCheck.Test.make
    ~name:"fuzz: chaos + overload identical seeds give identical runs"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let fingerprint () =
        let k, conserved, sheds = overload_chaos_run seed in
        (disk_checksum k, conserved, sheds)
      in
      fingerprint () = fingerprint ())

(* ------------------------------------------------------------------ *)
(* Farmed sweeps: the seeded fault-plan and random-schedule suites fan
   out over the domain pool.  Each task boots its own kernel from its
   seed alone, so the farm's self-containment contract applies; the
   sweep at 4 domains must reproduce the 1-domain sweep exactly. *)

module Par = Multics_par.Par

let fault_plan_fingerprint seed =
  let k = chaos_run seed in
  (seed, K.Invariants.check k, disk_checksum k)

let test_farmed_fault_plans () =
  (* [chaos_horizon] is a lazy; force it on this domain before any
     worker can race to. *)
  ignore (Lazy.force chaos_horizon);
  let sweep domains = Par.run ~domains ~tasks:12 fault_plan_fingerprint in
  let solo = sweep 1 in
  let farmed = sweep 4 in
  Array.iter
    (fun (seed, problems, _) ->
      Alcotest.(check (list string))
        (Printf.sprintf "fault plan %d leaves invariants intact" seed)
        [] problems)
    solo;
  Alcotest.(check bool) "fault-plan sweep: domains 1 = 4" true (solo = farmed)

let schedule_fingerprint seed =
  (* Programs built inside the task, from nothing shared. *)
  let k = quiescent_scheduled seed (chaos_programs ()) in
  ( seed,
    K.Invariants.check k,
    K.Kernel.now k,
    K.Kernel.denials k,
    K.Page_frame.evictions (K.Kernel.page_frame k) )

let test_farmed_schedules () =
  let sweep domains =
    Par.run ~domains ~tasks:10 (fun i -> schedule_fingerprint (1 + (997 * i)))
  in
  let solo = sweep 1 in
  let farmed = sweep 4 in
  Array.iter
    (fun (seed, problems, _, _, _) ->
      Alcotest.(check (list string))
        (Printf.sprintf "schedule seed %d leaves invariants intact" seed)
        [] problems)
    solo;
  Alcotest.(check bool) "schedule sweep: domains 1 = 4" true (solo = farmed)

(* ------------------------------------------------------------------ *)
(* Cross-shard conservation fuzz: random bursty workloads over random
   2–4 shard clusters (sometimes with a legacy member).  However the
   ring scatters users and keys, once every logout has settled the
   global books balance: every page charged on any shard's rgate cell
   was settled home exactly once, no shard still holds ledger pages,
   page frames are conserved and the kernel invariants hold.  Failures
   print the seed for exact replay. *)

module Cl = Multics_cluster

let cluster_run seed =
  let rng = Random.State.make [| seed |] in
  let n_shards = 2 + Random.State.int rng 3 in
  let legacy_at =
    (* Sometimes one member runs the legacy supervisor, MultiK-style. *)
    if Random.State.int rng 3 = 0 then Random.State.int rng n_shards else -1
  in
  let shards =
    List.init n_shards (fun i ->
        if i = legacy_at then Cl.Cluster.Legacy_shard L.Old_supervisor.default_config
        else Cl.Cluster.Kernel_shard K.Kernel.default_config)
  in
  let c = Cl.Cluster.create (Cl.Cluster.config ~rgate_quota:128 shards) in
  let n_users = 3 + Random.State.int rng 8 in
  for i = 0 to n_users - 1 do
    Cl.Cluster.register_user c ~user:(Printf.sprintf "fz%d" i) ~password:"pw"
  done;
  for i = 0 to n_users - 1 do
    let keys =
      List.init (Random.State.int rng 3) (fun _ ->
          Printf.sprintf "k%d" (Random.State.int rng 12))
    in
    let deadline_ns =
      (* Occasionally a deadline the link latency cannot meet, so the
         shed path is fuzzed too. *)
      if Random.State.int rng 5 = 0 then Some 500_000 else None
    in
    Cl.Cluster.login_at c
      ~at_ns:(1_000_000 + Random.State.int rng 8_000_000)
      ?deadline_ns ~remote_keys:keys
      ~remote_words:(200 + Random.State.int rng 800)
      ~user:(Printf.sprintf "fz%d" i) ~password:"pw"
      (K.Workload.compute_bound
         ~steps:(1 + Random.State.int rng 4)
         ~step_ns:(20_000 + Random.State.int rng 80_000))
  done;
  Cl.Cluster.run c;
  (c, Cl.Cluster.stats c)

let prop_fuzz_cluster_conservation =
  QCheck.Test.make
    ~name:"fuzz: cross-shard quota settles conservatively on any cluster"
    ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c, st = cluster_run seed in
      let closed = st.Cl.Cluster.st_sessions_closed = st.Cl.Cluster.st_logins in
      let settled =
        st.Cl.Cluster.st_settled_pages = st.Cl.Cluster.st_charged_pages
        && st.Cl.Cluster.st_ledger_pages = 0
      in
      let frames = Cl.Cluster.frames_conserved c in
      let inv = Cl.Cluster.invariants c in
      if not (closed && settled && frames && inv = []) then begin
        Printf.printf
          "cluster seed %d: closed %d/%d, settled %d, charged %d, ledger %d, \
           frames %s\n"
          seed st.Cl.Cluster.st_sessions_closed st.Cl.Cluster.st_logins
          st.Cl.Cluster.st_settled_pages st.Cl.Cluster.st_charged_pages
          st.Cl.Cluster.st_ledger_pages
          (if frames then "ok" else "LEAKED");
        List.iter
          (fun (sh, p) -> Printf.printf "shard %d invariant: %s\n" sh p)
          inv
      end;
      closed && settled && frames && inv = [])

let prop_fuzz_cluster_deterministic =
  QCheck.Test.make
    ~name:"fuzz: identical cluster seeds give identical fingerprints"
    ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let fp () =
        let c, st = cluster_run seed in
        (Cl.Cluster.fingerprint c, st)
      in
      fp () = fp ())

let tests =
  [ qcheck prop_fuzz_new_kernel;
    qcheck prop_fuzz_invariants;
    qcheck prop_fuzz_quota_bounded;
    qcheck prop_fuzz_legacy_kernel;
    qcheck prop_fuzz_cramped;
    qcheck prop_fuzz_deterministic;
    qcheck prop_fuzz_schedule_conservation;
    qcheck prop_fuzz_schedule_invariants;
    qcheck prop_fuzz_schedule_deterministic;
    qcheck prop_fuzz_fault_plans;
    qcheck prop_fuzz_fault_plans_deterministic;
    qcheck prop_fuzz_overload_chaos;
    qcheck prop_fuzz_overload_chaos_deterministic;
    qcheck prop_fuzz_cluster_conservation;
    qcheck prop_fuzz_cluster_deterministic;
    Alcotest.test_case "fuzz: farmed fault-plan sweep, domains 1 = 4" `Slow
      test_farmed_fault_plans;
    Alcotest.test_case "fuzz: farmed schedule sweep, domains 1 = 4" `Slow
      test_farmed_schedules ]
