(* The schedule explorer: choice strategies, exploration, replay, and
   the certified-inert default path. *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim
module Check = Multics_check
module Choice = Multics_choice.Choice

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Choice strategies *)

let test_choice_inert () =
  let c = Choice.default in
  check Alcotest.bool "inert" false (Choice.is_active c);
  check Alcotest.int "always 0" 0 (Choice.pick c ~domain:"d" ~ids:[| 7; 8 |]);
  check Alcotest.int "nothing recorded" 0 (Choice.decisions c)

let test_choice_scripted () =
  let c = Choice.scripted [ 1; 99; -3 ] in
  check Alcotest.int "scripted pick" 1 (Choice.pick c ~domain:"d" ~ids:[| 5; 6 |]);
  (* Out-of-range entries clamp rather than crash the replay. *)
  check Alcotest.int "clamped high" 1 (Choice.pick c ~domain:"d" ~ids:[| 5; 6 |]);
  check Alcotest.int "clamped low" 0 (Choice.pick c ~domain:"d" ~ids:[| 5; 6 |]);
  (* Exhausted scripts fall back to the default path. *)
  check Alcotest.int "padding" 0 (Choice.pick c ~domain:"d" ~ids:[| 5; 6 |]);
  check Alcotest.int "four decisions" 4 (Choice.decisions c);
  (* Singleton choice points are not real branches: not recorded. *)
  check Alcotest.int "singleton" 0 (Choice.pick c ~domain:"d" ~ids:[| 9 |]);
  check Alcotest.int "still four" 4 (Choice.decisions c)

let test_choice_random_deterministic () =
  let draw () =
    let c = Choice.random ~seed:11 () in
    List.init 20 (fun _ -> Choice.pick c ~domain:"d" ~ids:[| 0; 1; 2 |])
  in
  check (Alcotest.list Alcotest.int) "seed-stable" (draw ()) (draw ());
  let other =
    let c = Choice.random ~seed:12 () in
    List.init 20 (fun _ -> Choice.pick c ~domain:"d" ~ids:[| 0; 1; 2 |])
  in
  check Alcotest.bool "different seeds diverge" true (draw () <> other)

let test_choice_reset () =
  let c = Choice.random ~seed:3 () in
  let a = List.init 8 (fun _ -> Choice.pick c ~domain:"d" ~ids:[| 0; 1; 2; 3 |]) in
  Choice.reset c;
  check Alcotest.int "trace cleared" 0 (Choice.decisions c);
  let b = List.init 8 (fun _ -> Choice.pick c ~domain:"d" ~ids:[| 0; 1; 2; 3 |]) in
  check (Alcotest.list Alcotest.int) "reset rewinds the stream" a b

(* ------------------------------------------------------------------ *)
(* Exploration of the toy harness *)

let toy = Check.Harness.eventcount_system ~events:3 ()

let test_default_strategy_passes () =
  match Check.Explore.check_default toy with
  | Check.Explore.Passed s ->
      check Alcotest.bool "choice points consulted" true
        (s.Check.Explore.decisions > 0)
  | Check.Explore.Failed _ -> Alcotest.fail "default schedule violated oracle"

let test_dfs_explores_and_passes () =
  match Check.Explore.check_dfs ~max_runs:400 toy with
  | Check.Explore.Passed s ->
      check Alcotest.bool "more than one distinct schedule" true
        (s.Check.Explore.distinct > 1);
      check Alcotest.int "space closed" 0 s.Check.Explore.frontier_left
  | Check.Explore.Failed _ -> Alcotest.fail "correct harness violated oracle"

let test_random_explores_and_passes () =
  match Check.Explore.check_random ~runs:30 ~seed:5 toy with
  | Check.Explore.Passed s ->
      check Alcotest.bool "random diverged from default" true
        (s.Check.Explore.distinct > 1)
  | Check.Explore.Failed _ -> Alcotest.fail "correct harness violated oracle"

let test_dfs_finds_lost_wakeup () =
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_dfs ~max_runs:200 buggy with
  | Check.Explore.Passed _ -> Alcotest.fail "seeded lost wakeup not found"
  | Check.Explore.Failed { f_problems; f_script; f_events; _ } ->
      check Alcotest.bool "reports a lost wakeup" true
        (List.exists
           (fun p ->
             Astring.String.is_infix ~affix:"lost wakeup" p)
           f_problems);
      check Alcotest.bool "counterexample is not the default schedule" true
        (f_script <> []);
      check Alcotest.int "events decode the script"
        (List.length f_script)
        (List.length
           (List.filteri (fun i _ -> i < List.length f_script) f_events));
      (* The default schedule of the buggy harness is safe: the bug is
         schedule-dependent, which is the whole reason to explore. *)
      (match Check.Explore.check_default buggy with
      | Check.Explore.Passed _ -> ()
      | Check.Explore.Failed _ ->
          Alcotest.fail "bug should hide under the default schedule")

let test_replay_exact () =
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_dfs ~max_runs:200 buggy with
  | Check.Explore.Passed _ -> Alcotest.fail "seeded lost wakeup not found"
  | Check.Explore.Failed { f_script; f_problems; f_events; _ } ->
      (* Replaying the minimal script reproduces the identical failure
         and the identical decoded schedule, twice. *)
      let p1, e1 = Check.Explore.replay buggy ~script:f_script in
      let p2, e2 = Check.Explore.replay buggy ~script:f_script in
      check (Alcotest.list Alcotest.string) "same violation" f_problems p1;
      check (Alcotest.list Alcotest.string) "replay deterministic" p1 p2;
      let decode evs =
        List.map
          (fun (ev : Choice.event) ->
            Format.asprintf "%a" Choice.pp_event ev)
          evs
      in
      check (Alcotest.list Alcotest.string) "same schedule" (decode f_events)
        (decode e1);
      check (Alcotest.list Alcotest.string) "same schedule twice"
        (decode e1) (decode e2)

let test_random_finds_lost_wakeup () =
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_random ~runs:100 ~seed:1 buggy with
  | Check.Explore.Passed _ ->
      Alcotest.fail "100 random schedules missed the seeded bug"
  | Check.Explore.Failed { f_seed; f_script; _ } ->
      check Alcotest.bool "offending seed reported" true (f_seed <> None);
      let problems, _ = Check.Explore.replay buggy ~script:f_script in
      check Alcotest.bool "shrunk script still fails" true (problems <> [])

(* ------------------------------------------------------------------ *)
(* The kernel under exploration *)

let test_kernel_dfs_passes () =
  let sys = Check.Harness.kernel_system () in
  match Check.Explore.check_dfs ~max_runs:25 ~max_depth:10 sys with
  | Check.Explore.Passed s ->
      check Alcotest.bool "distinct kernel schedules" true
        (s.Check.Explore.distinct > 1)
  | Check.Explore.Failed _ ->
      Alcotest.fail "kernel ping-pong violated the oracle"

(* Bit-identity: booting with the recorded-default strategy must leave
   clock and disk exactly as a kernel with no strategy at all. *)
let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let run_small_workload ~choice =
  let k = K.Kernel.boot { K.Kernel.small_config with K.Kernel.choice } in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore
    (K.Kernel.spawn k ~pname:"w"
       (K.Workload.concat
          [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
               K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_write ~seg_reg:0 ~pages:6 ]));
  ignore
    (K.Kernel.spawn k ~pname:"c"
       (K.Workload.file_churn ~dir:">home" ~files:2 ~pages_each:2 ~seed:3));
  Alcotest.(check bool) "completes" true (K.Kernel.run_to_completion k);
  K.Kernel.shutdown k;
  (k, K.Kernel.now k)

let disk_checksum k = Hw.Disk.fingerprint (K.Kernel.machine k).Hw.Machine.disk

let test_recorded_default_bit_identical () =
  let k_none, t_none = run_small_workload ~choice:None in
  let recorder = Choice.record_default () in
  let k_rec, t_rec = run_small_workload ~choice:(Some recorder) in
  check Alcotest.int "clock identical" t_none t_rec;
  check Alcotest.int "disk identical" (disk_checksum k_none)
    (disk_checksum k_rec);
  check Alcotest.bool "strategy was really consulted" true
    (Choice.decisions recorder > 0)

(* The acceptance bar for the flight recorder: the seeded lost-wakeup
   counterexample ships with a causal dump of the minimal failing
   schedule, whose events carry context chains that reconstruct the
   race — the consumer's wait registered under its own root, and the
   producer's advances never reaching the threshold. *)
let test_counterexample_flight_dump () =
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_dfs ~max_runs:200 buggy with
  | Check.Explore.Passed _ -> Alcotest.fail "seeded lost wakeup not found"
  | Check.Explore.Failed { f_flight; _ } ->
      let has affix = Astring.String.is_infix ~affix f_flight in
      check Alcotest.bool "dump attached" true (f_flight <> "");
      check Alcotest.bool "dump is a flight recording" true
        (has "flight recorder:");
      (* The race's two sides, each causally attributed to its VP. *)
      check Alcotest.bool "consumer's wait recorded" true (has "ec_wait");
      check Alcotest.bool "producer's advances recorded" true
        (has "ec_advance");
      check Alcotest.bool "wait attributed to the consumer" true
        (has ":consumer");
      check Alcotest.bool "advance attributed to the producer" true
        (has ":producer");
      (* Determinism: replaying the same minimal schedule reproduces
         the identical dump, byte for byte. *)
      (match Check.Explore.check_dfs ~max_runs:200 buggy with
      | Check.Explore.Failed { f_flight = again; _ } ->
          check Alcotest.string "dump is deterministic" f_flight again
      | Check.Explore.Passed _ -> Alcotest.fail "bug vanished on re-run")

(* ------------------------------------------------------------------ *)
(* Circuit breakers under exploration.  The harness drives the I/O
   scheduler directly, so the only choice points are completion
   delivery order and backoff jitter — a space DFS can actually
   close.  The seeded "bug" is a schedule-dependent tuning claim:
   with the trip threshold at the noise floor, the default sweep
   order interleaves a clean read between the two transient faults
   (resetting the consecutive-failure count), but some reordering
   aligns them and trips the breaker. *)

let test_breaker_dfs_passes () =
  let sys = Check.Harness.breaker_system () in
  (match Check.Explore.check_default sys with
  | Check.Explore.Passed _ -> ()
  | Check.Explore.Failed { f_problems; _ } ->
      Alcotest.fail
        ("default breaker schedule violated oracle: "
        ^ String.concat "; " f_problems));
  match Check.Explore.check_dfs ~max_runs:400 sys with
  | Check.Explore.Passed s ->
      check Alcotest.bool "distinct breaker schedules" true
        (s.Check.Explore.distinct > 1);
      check Alcotest.int "space closed" 0 s.Check.Explore.frontier_left
  | Check.Explore.Failed { f_problems; _ } ->
      Alcotest.fail
        ("breaker harness violated oracle: " ^ String.concat "; " f_problems)

let test_breaker_dfs_finds_trip () =
  let buggy = Check.Harness.breaker_system ~bug:true () in
  (* The claim holds under the default sweep order: a clean read lands
     between the two transients, so the breaker never sees two
     consecutive failures.  Exploration is what falsifies it. *)
  (match Check.Explore.check_default buggy with
  | Check.Explore.Passed _ -> ()
  | Check.Explore.Failed _ ->
      Alcotest.fail "claim should hold under the default schedule");
  match Check.Explore.check_dfs ~max_runs:400 buggy with
  | Check.Explore.Passed _ ->
      Alcotest.fail "mis-tuned breaker threshold not found"
  | Check.Explore.Failed { f_problems; f_script; f_events; _ } ->
      check Alcotest.bool "reports the transient trip" true
        (List.exists
           (fun p -> Astring.String.is_infix ~affix:"transient noise" p)
           f_problems);
      check Alcotest.bool "counterexample is not the default schedule" true
        (f_script <> []);
      (* Exact shrinking: the minimal script replays to the identical
         violation and the identical decoded schedule, twice. *)
      let p1, e1 = Check.Explore.replay buggy ~script:f_script in
      let p2, e2 = Check.Explore.replay buggy ~script:f_script in
      check (Alcotest.list Alcotest.string) "same violation" f_problems p1;
      check (Alcotest.list Alcotest.string) "replay deterministic" p1 p2;
      let decode evs =
        List.map
          (fun (ev : Choice.event) -> Format.asprintf "%a" Choice.pp_event ev)
          evs
      in
      check (Alcotest.list Alcotest.string) "same schedule" (decode f_events)
        (decode e1);
      check (Alcotest.list Alcotest.string) "same schedule twice" (decode e1)
        (decode e2);
      let again, _ = Check.Explore.minimize buggy ~script:f_script in
      check Alcotest.bool "minimization never grows the script" true
        (List.length again <= List.length f_script)

let test_minimize_no_longer () =
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_random ~runs:100 ~seed:1 buggy with
  | Check.Explore.Passed _ -> Alcotest.fail "bug not found"
  | Check.Explore.Failed { f_script; _ } ->
      let again, trials = Check.Explore.minimize buggy ~script:f_script in
      check Alcotest.bool "minimization is idempotent-or-shrinking" true
        (List.length again <= List.length f_script);
      check Alcotest.bool "shrinking spent runs" true (trials >= 0)

let tests =
  [ Alcotest.test_case "choice: inert default" `Quick test_choice_inert;
    Alcotest.test_case "choice: scripted replay + clamping" `Quick
      test_choice_scripted;
    Alcotest.test_case "choice: random is seed-deterministic" `Quick
      test_choice_random_deterministic;
    Alcotest.test_case "choice: reset rewinds" `Quick test_choice_reset;
    Alcotest.test_case "explore: default strategy passes" `Quick
      test_default_strategy_passes;
    Alcotest.test_case "explore: DFS covers the toy space" `Quick
      test_dfs_explores_and_passes;
    Alcotest.test_case "explore: random covers the toy space" `Quick
      test_random_explores_and_passes;
    Alcotest.test_case "explore: DFS finds seeded lost wakeup" `Quick
      test_dfs_finds_lost_wakeup;
    Alcotest.test_case "explore: counterexample replay exact" `Quick
      test_replay_exact;
    Alcotest.test_case "explore: random finds seeded lost wakeup" `Quick
      test_random_finds_lost_wakeup;
    Alcotest.test_case "explore: kernel ping-pong safe" `Quick
      test_kernel_dfs_passes;
    Alcotest.test_case "explore: recorded default bit-identical" `Quick
      test_recorded_default_bit_identical;
    Alcotest.test_case "explore: minimize shrinks" `Quick
      test_minimize_no_longer;
    Alcotest.test_case "explore: counterexample ships flight dump" `Quick
      test_counterexample_flight_dump;
    Alcotest.test_case "explore: breaker space closes clean" `Quick
      test_breaker_dfs_passes;
    Alcotest.test_case "explore: DFS finds mis-tuned breaker" `Quick
      test_breaker_dfs_finds_trip ]
