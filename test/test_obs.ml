(* The observability layer: the ring buffer, the log2 histograms, the
   sink's two modes, the eventcount latency plumbing, request
   contexts, the Chrome export with its call-census counters — and the
   property everything else rests on: tracing never moves the simulated
   clock. *)

module K = Multics_kernel
module Hw = Multics_hw
module Obs = Multics_obs
module Sync = Multics_sync
module Aim = Multics_aim
module S = Multics_services

let check = Alcotest.check

(* A sink over a hand-cranked clock, so latencies are exact. *)
let rig ?(mode = Obs.Sink.Full) () =
  let clock = ref 0 in
  let sink = Obs.Sink.create ~mode ~now:(fun () -> !clock) () in
  (clock, sink)

(* ------------------------------------------------------------------ *)
(* Ring buffer: bounded, oldest-first iteration, overwrite accounting. *)

let ev t name =
  { Obs.Trace_buf.ev_time = t; ev_phase = Obs.Trace_buf.Instant;
    ev_cat = "t"; ev_name = name; ev_tid = 0; ev_id = 0; ev_arg = 0;
    ev_ctx = 0 }

let test_ring_wraparound () =
  let buf = Obs.Trace_buf.create ~capacity:4 () in
  check Alcotest.int "empty" 0 (Obs.Trace_buf.length buf);
  List.iteri
    (fun i name -> Obs.Trace_buf.record buf (ev i name))
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  check Alcotest.int "bounded" 4 (Obs.Trace_buf.length buf);
  check Alcotest.int "two overwritten" 2 (Obs.Trace_buf.dropped buf);
  check
    Alcotest.(list string)
    "oldest first, oldest gone"
    [ "c"; "d"; "e"; "f" ]
    (List.map
       (fun e -> e.Obs.Trace_buf.ev_name)
       (Obs.Trace_buf.events buf));
  Obs.Trace_buf.clear buf;
  check Alcotest.int "cleared" 0 (Obs.Trace_buf.length buf)

(* ------------------------------------------------------------------ *)
(* Histograms: log2 bucket edges, percentiles, max. *)

let test_histo_buckets () =
  let h = Obs.Histo.create ~name:"t" in
  (* 0 and 1 share bucket 0; 2..3 bucket 1; 1024..2047 bucket 10. *)
  List.iter (Obs.Histo.add h) [ 0; 1; 2; 3; 1024; 2047 ];
  check Alcotest.int "samples" 6 (Obs.Histo.count h);
  check Alcotest.int "max" 2047 (Obs.Histo.max_value h);
  check
    Alcotest.(list (triple int int int))
    "bucket edges"
    [ (0, 1, 2); (2, 3, 2); (1024, 2047, 2) ]
    (Obs.Histo.buckets h)

let test_histo_percentiles () =
  let h = Obs.Histo.create ~name:"t" in
  (* 90 samples in [0,1], 10 at exactly 5000 (bucket 4096..8191). *)
  for _ = 1 to 90 do Obs.Histo.add h 1 done;
  for _ = 1 to 10 do Obs.Histo.add h 5000 done;
  check Alcotest.int "p50 in low bucket" 1 (Obs.Histo.percentile h ~pct:50);
  check Alcotest.int "p90 in low bucket" 1 (Obs.Histo.percentile h ~pct:90);
  (* p95 lands among the 5000s; reported as bucket-high clamped to max. *)
  check Alcotest.int "p95 in high bucket" 5000
    (Obs.Histo.percentile h ~pct:95);
  check Alcotest.int "p100 = max" 5000 (Obs.Histo.percentile h ~pct:100);
  check Alcotest.int "empty histo p50" 0
    (Obs.Histo.percentile (Obs.Histo.create ~name:"e") ~pct:50)

(* ------------------------------------------------------------------ *)
(* Sink modes.  Counters counts and times but keeps the big ring
   empty; Full records the ring too. *)

let test_sink_counters_mode () =
  let clock, sink = rig ~mode:Obs.Sink.Counters () in
  Obs.Sink.count sink "x";
  Obs.Sink.count sink "x";
  let sp = Obs.Sink.span_begin sink ~cat:"c" ~name:"n" () in
  clock := 700;
  Obs.Sink.span_end sink ~histo:"h" sp;
  check
    Alcotest.(list (pair string int))
    "counter bumped" [ ("x", 2) ] (Obs.Sink.counters sink);
  let h = Obs.Sink.histo sink ~name:"h" in
  check Alcotest.int "span timed" 700 (Obs.Histo.max_value h);
  check Alcotest.int "ring stays empty" 0
    (Obs.Trace_buf.length (Obs.Sink.buf sink))

let test_sink_full_nesting () =
  let clock, sink = rig () in
  let outer = Obs.Sink.span_begin sink ~cat:"a" ~name:"outer" () in
  clock := 10;
  let inner = Obs.Sink.span_begin sink ~cat:"a" ~name:"inner" () in
  clock := 20;
  Obs.Sink.span_end sink inner;
  clock := 30;
  Obs.Sink.span_end sink outer;
  let phases =
    List.map
      (fun e -> (e.Obs.Trace_buf.ev_phase, e.Obs.Trace_buf.ev_time))
      (Obs.Trace_buf.events (Obs.Sink.buf sink))
  in
  check Alcotest.int "four events" 4 (List.length phases);
  check Alcotest.bool "B B E E" true
    (phases
    = [ (Obs.Trace_buf.Span_begin, 0); (Obs.Trace_buf.Span_begin, 10);
        (Obs.Trace_buf.Span_end, 20); (Obs.Trace_buf.Span_end, 30) ]);
  (* The timeline export indents the inner span under the outer. *)
  let text =
    Format.asprintf "%a" Obs.Trace_export.pp_timeline (Obs.Sink.buf sink)
  in
  let has sub =
    Astring.String.find_sub ~sub text <> None
  in
  check Alcotest.bool "outer at margin" true (has "t0  >  a:outer");
  check Alcotest.bool "inner indented" true (has "t0    >  a:inner")

let test_chrome_json_pairs () =
  let clock, sink = rig () in
  Obs.Sink.async_begin sink ~cat:"io" ~name:"batch" ~id:7 ();
  clock := 1500;
  Obs.Sink.async_end sink ~cat:"io" ~name:"batch" ~id:7 ();
  Obs.Sink.count sink "c";
  let json =
    Obs.Trace_export.chrome_json
      ~counters:(Obs.Sink.counters sink)
      (Obs.Sink.buf sink)
  in
  let has sub = Astring.String.find_sub ~sub json <> None in
  check Alcotest.bool "async begin" true (has "\"ph\":\"b\"");
  check Alcotest.bool "async end" true (has "\"ph\":\"e\"");
  check Alcotest.bool "id paired" true (has "\"id\":7");
  check Alcotest.bool "microsecond ts" true (has "\"ts\":1.500")

(* ------------------------------------------------------------------ *)
(* Eventcount wait plumbing over the fake clock. *)

let test_ec_wait_time () =
  let clock, sink = rig ~mode:Obs.Sink.Counters () in
  let ec = Sync.Eventcount.create ~name:"work" ~obs:sink () in
  let woke = ref 0 in
  check Alcotest.bool "waits" false
    (Sync.Eventcount.await ec ~value:1 ~notify:(fun () -> incr woke));
  clock := 2_500;
  Sync.Eventcount.advance ec;
  check Alcotest.int "woken" 1 !woke;
  let h = Obs.Sink.histo sink ~name:"ec.wait:work" in
  check Alcotest.int "one wait sample" 1 (Obs.Histo.count h);
  check Alcotest.int "waited 2500" 2_500 (Obs.Histo.max_value h)

(* ------------------------------------------------------------------ *)
(* The tentpole invariant: booting with tracing at Counters and Full
   runs the same workload to the same simulated nanosecond. *)

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let run_small mode =
  let config = { K.Kernel.small_config with K.Kernel.trace = mode } in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let writer =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
           K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:12 ]
  in
  ignore (K.Kernel.spawn k ~pname:"w" writer);
  check Alcotest.bool "completes" true (K.Kernel.run_to_completion k);
  let t = K.Kernel.now k in
  K.Kernel.shutdown k;
  (t, k)

let test_trace_clock_neutral () =
  let t_counters, _ = run_small Obs.Sink.Counters in
  let t_full, k = run_small Obs.Sink.Full in
  check Alcotest.int "identical clocks" t_counters t_full;
  check Alcotest.bool "ring saw events" true
    (Obs.Trace_buf.length (Obs.Sink.buf (K.Kernel.obs k)) > 0);
  check Alcotest.bool "histos populated" true
    (Obs.Sink.histos (K.Kernel.obs k) <> []);
  (* The reports render without blowing up. *)
  check Alcotest.bool "histo report" true
    (String.length (K.Kernel.histo_report k) > 0);
  check Alcotest.bool "timeline" true
    (String.length (K.Kernel.trace_report k) > 0);
  check Alcotest.bool "chrome trace" true
    (String.length (K.Kernel.chrome_trace k) > 0)

(* ------------------------------------------------------------------ *)
(* Request contexts: allocation discipline and causal propagation. *)

let test_ctx_basics () =
  let _, sink = rig ~mode:Obs.Sink.Counters () in
  let root = Obs.Sink.new_ctx sink ~parent:0 ~origin:"alice" () in
  Obs.Sink.set_current sink root;
  let child = Obs.Sink.new_ctx sink ~origin:"hcs_$initiate" () in
  let grand = Obs.Sink.new_ctx sink ~parent:child ~origin:"missing_page" () in
  check Alcotest.int "parent defaulted to current" root
    (Obs.Sink.ctx_parent sink child);
  check Alcotest.int "root precomputed" root (Obs.Sink.ctx_root sink grand);
  check (Alcotest.list Alcotest.int) "chain leaf to root"
    [ grand; child; root ]
    (Obs.Sink.ctx_chain sink grand);
  check Alcotest.string "origin kept" "alice" (Obs.Sink.ctx_origin sink root);
  Obs.Sink.set_current sink grand;
  Obs.Sink.instant sink ~cat:"t" ~name:"stamped" ();
  let evs = Obs.Trace_buf.events (Obs.Sink.flight sink) in
  check Alcotest.bool "event stamped with ambient ctx" true
    (List.exists (fun e -> e.Obs.Trace_buf.ev_ctx = grand) evs);
  Obs.Sink.attribute sink ~ctx:grand ~cpu_ns:70 ~ios:2;
  Obs.Sink.attribute sink ~ctx:child ~cpu_ns:30 ~ios:1;
  check
    Alcotest.(list (pair string (pair int int)))
    "usage joined to the root origin"
    [ ("alice", (100, 3)) ]
    (Obs.Sink.by_user sink)

(* The context store against a list of what was minted.  Each case
   mints up to 3,000 contexts, so ids cross the first chunk's doublings
   and several full-chunk boundaries; parents are drawn from anywhere
   before (usually an earlier chunk), sometimes by way of the ambient
   context, and deadlines are absent, tighter or looser than the
   parent's.  The reference computes roots, chains and deadlines by
   walking the recorded parents, not incrementally. *)
type minted = { m_parent : int; m_own : int; m_origin : string }

let test_ctx_store_model =
  QCheck.Test.make ~name:"ctx store agrees with a list model" ~count:40
    QCheck.(pair (int_range 1 3_000) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let _, sink = rig ~mode:Obs.Sink.Counters () in
      let users = [| "alice"; "bob"; "carol" |] in
      let model = ref [] in
      for id = 1 to n do
        let parent =
          if id = 1 || Random.State.int rng 4 = 0 then 0
          else Random.State.int rng (id - 1) + 1
        in
        let own =
          if Random.State.bool rng then 0 else 1 + Random.State.int rng 1_000
        in
        let origin =
          if parent = 0 then users.(Random.State.int rng 3) else "gate"
        in
        let deadline = if own = 0 then None else Some own in
        let got =
          if Random.State.bool rng then
            Obs.Sink.new_ctx sink ~parent ?deadline ~origin ()
          else begin
            Obs.Sink.set_current sink parent;
            Obs.Sink.new_ctx sink ?deadline ~origin ()
          end
        in
        if got <> id then Alcotest.failf "minted %d, expected %d" got id;
        model := { m_parent = parent; m_own = own; m_origin = origin } :: !model
      done;
      let model = Array.of_list (List.rev !model) in
      let entry id = model.(id - 1) in
      let known id = id >= 1 && id <= n in
      let rec chain id = if known id then id :: chain (entry id).m_parent else [] in
      let root id = match List.rev (chain id) with r :: _ -> r | [] -> 0 in
      let deadline id =
        List.fold_left
          (fun d c ->
            let own = (entry c).m_own in
            if own = 0 then d else if d = 0 then own else min d own)
          0 (chain id)
      in
      let usage = Hashtbl.create 4 in
      let probes = [ -1; 0; n + 1; n + 1_024 ] @ List.init n (fun i -> i + 1) in
      List.iter
        (fun id ->
          let now = Random.State.int rng 1_100 in
          let expect what e g =
            if e <> g then Alcotest.failf "ctx %d: %s %d, expected %d" id what g e
          in
          expect "parent"
            (if known id then (entry id).m_parent else 0)
            (Obs.Sink.ctx_parent sink id);
          expect "root" (root id) (Obs.Sink.ctx_root sink id);
          expect "deadline" (deadline id) (Obs.Sink.ctx_deadline sink id);
          let expired = deadline id > 0 && now > deadline id in
          if Obs.Sink.ctx_expired sink ~now id <> expired then
            Alcotest.failf "ctx %d: expired wrong at %d" id now;
          if Obs.Sink.ctx_chain sink id <> chain id then
            Alcotest.failf "ctx %d: chain differs" id;
          let origin = if known id then (entry id).m_origin else "" in
          if Obs.Sink.ctx_origin sink id <> origin then
            Alcotest.failf "ctx %d: origin differs" id;
          Obs.Sink.attribute sink ~ctx:id ~cpu_ns:id ~ios:1;
          if known id then begin
            let user = (entry (root id)).m_origin in
            let cpu, ios =
              Option.value ~default:(0, 0) (Hashtbl.find_opt usage user)
            in
            Hashtbl.replace usage user (cpu + id, ios + 1)
          end)
        probes;
      let expected =
        List.sort compare (Hashtbl.fold (fun u v acc -> (u, v) :: acc) usage [])
      in
      Obs.Sink.ctx_count sink = n && Obs.Sink.by_user sink = expected)

(* The store reserves at most one chunk ahead of the ids it has handed
   out; a doubling store would hold 8,192 slots here. *)
let test_ctx_store_bounded () =
  let _, sink = rig ~mode:Obs.Sink.Counters () in
  for _ = 1 to 5_000 do
    ignore (Obs.Sink.new_ctx sink ~parent:0 ~origin:"u" ())
  done;
  check Alcotest.bool "about 4 words a context" true
    (Obs.Sink.ctx_words sink <= (4 * (5_000 + 1_024)) + 64)

(* The flight dump's exact text: a wide timestamp and a two-digit track
   fill their columns, a small one pads, and a context prints its whole
   chain back to the root. *)
let test_flight_dump_text () =
  let clock, sink = rig ~mode:Obs.Sink.Counters () in
  let root = Obs.Sink.new_ctx sink ~parent:0 ~origin:"alice" () in
  let gate = Obs.Sink.new_ctx sink ~parent:root ~origin:"hcs_$initiate" () in
  let fault = Obs.Sink.new_ctx sink ~parent:gate ~origin:"missing_page" () in
  let ahead = Obs.Sink.new_ctx sink ~parent:fault ~origin:"read_ahead" () in
  clock := 5;
  Obs.Sink.instant sink ~tid:3 ~cat:"vp" ~name:"step" ();
  clock := 123_456_789_012;
  Obs.Sink.set_current sink ahead;
  Obs.Sink.async_begin sink ~tid:12 ~arg:42 ~cat:"io" ~name:"batch" ~id:7 ();
  check Alcotest.string "dump text"
    "flight recorder: 2 events (0 overwritten)\n\
    \           5 t3  i vp:step\n\
     123456789012 t12 b io:batch id=7 arg=42 \
     ctx=4:read_ahead<-3:missing_page<-2:hcs_$initiate<-1:alice\n"
    (Obs.Sink.flight_dump sink)

(* The dump writes numbers digit by digit and renders each context chain
   once: every number must still read as [Printf] renders it, at every
   width and sign, and a chain repeated across events, or one of an
   unknown context, must print as it would alone. *)
let test_flight_dump_numbers () =
  let clock, sink = rig ~mode:Obs.Sink.Counters () in
  let root = Obs.Sink.new_ctx sink ~parent:0 ~origin:"bob" () in
  let child = Obs.Sink.new_ctx sink ~parent:root ~origin:"fault" () in
  let numbers =
    [ 0; 1; 9; 10; 99; 100; 12_345; 999_999_999_999; 1_000_000_000_000;
      max_int; -1; -10; -123_456; min_int + 1; min_int ]
  in
  let expected = Buffer.create 1024 in
  List.iteri
    (fun i n ->
      let ctx = [| 0; child; root; child; 99 |].(i mod 5) in
      let tid = abs (n mod 1000) in
      clock := n;
      Obs.Sink.set_current sink ctx;
      Obs.Sink.instant sink ~tid ~arg:n ~cat:"t" ~name:"n" ();
      Buffer.add_string expected (Printf.sprintf "%12d t%-2d i t:n" n tid);
      if n <> 0 then Buffer.add_string expected (Printf.sprintf " arg=%d" n);
      Buffer.add_string expected
        (match ctx with
        | 0 -> ""
        | 99 -> " ctx="
        | c when c = root -> " ctx=1:bob"
        | _ -> " ctx=2:fault<-1:bob");
      Buffer.add_char expected '\n')
    numbers;
  check Alcotest.string "dump text"
    (Printf.sprintf "flight recorder: %d events (0 overwritten)\n%s"
       (List.length numbers) (Buffer.contents expected))
    (Obs.Sink.flight_dump sink)

(* The cramped machine from the I/O tests: 40 pageable frames, a
   48-page file written then read back, so the read pass faults, the
   elevator serves it, and read-ahead prefetches.  Every record's
   first read fails once, so servicing also includes retries. *)
let ctx_kernel () =
  let faults = Hw.Fault_inject.create () in
  for pack = 0 to 3 do
    for record = 0 to 1023 do
      Hw.Fault_inject.fail_reads faults ~pack ~record ~times:1
    done
  done;
  let config =
    { K.Kernel.default_config with
      K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
      core_frames = 24; trace = Obs.Sink.Full; faults }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (K.Workload.concat
          [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
               K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_write ~seg_reg:0 ~pages:48 ]));
  check Alcotest.bool "writer completed" true (K.Kernel.run_to_completion k);
  ignore
    (K.Kernel.spawn k ~pname:"reader"
       (K.Workload.concat
          [ [| K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_read ~seg_reg:0 ~pages:48 ]));
  check Alcotest.bool "reader completed" true (K.Kernel.run_to_completion k);
  k

(* ------------------------------------------------------------------ *)
(* What the benchmark reads by name: [hw.event_pop] from
   [Sink.counters] and three histograms from [Sink.histos].  It reads a
   missing name as 0, so a renamed or deleted recorder would show up
   there only as a silent 0. *)

let test_event_pop_counter () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore
    (K.Kernel.spawn k ~pname:"w"
       (K.Workload.concat
          [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
               K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_write ~seg_reg:0 ~pages:12 ]));
  let obs = K.Kernel.obs k and m = K.Kernel.machine k in
  let pops () = List.assoc_opt "hw.event_pop" (Obs.Sink.counters obs) in
  let before = Option.value ~default:0 (pops ()) in
  let rec drain n = if Hw.Machine.step m then drain (n + 1) else n in
  let n = drain 0 in
  check Alcotest.bool "events were stepped" true (n > 0);
  check Alcotest.(option int) "one bump per stepped event" (Some (before + n))
    (pops ());
  check Alcotest.bool "an empty queue steps nothing" false (Hw.Machine.step m);
  check Alcotest.(option int) "and counts nothing" (Some (before + n)) (pops ())

let test_benchmark_histograms () =
  let k = ctx_kernel () in
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  S.Answering_service.register_user svc ~user:"alice" ~password:"pw"
    ~clearance:low;
  (match
     S.Answering_service.login svc ~user:"alice" ~password:"pw"
       ~program:[| K.Workload.Compute 1_000; K.Workload.Terminate |]
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "login");
  check Alcotest.bool "session completed" true (K.Kernel.run_to_completion k);
  let count name =
    List.find_map
      (fun h ->
        if Obs.Histo.name h = name then Some (Obs.Histo.count h) else None)
      (Obs.Sink.histos (K.Kernel.obs k))
  in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " sampled") true
        (match count name with Some n -> n > 0 | None -> false))
    [ "pfm.page_read"; "sched.ready_wait" ];
  check Alcotest.(option int) "as.login: one login" (Some 1) (count "as.login")

let test_ctx_propagation () =
  let k = ctx_kernel () in
  let obs = K.Kernel.obs k in
  let events = Obs.Trace_buf.events (Obs.Sink.buf obs) in
  let chain_has origin ctx =
    List.exists
      (fun id -> Obs.Sink.ctx_origin obs id = origin)
      (Obs.Sink.ctx_chain obs ctx)
  in
  let rooted_in_user ctx =
    Obs.Sink.ctx_origin obs (Obs.Sink.ctx_root obs ctx) = "user"
  in
  let find phase cat name =
    List.filter
      (fun e ->
        e.Obs.Trace_buf.ev_phase = phase
        && e.Obs.Trace_buf.ev_cat = cat
        && e.Obs.Trace_buf.ev_name = name)
      events
  in
  (* 1. The async page read carries the faulting request's context:
     through the fault ctx up to the user's root. *)
  let reads = find Obs.Trace_buf.Async_begin "pfm" "page_read" in
  check Alcotest.bool "page reads traced" true (reads <> []);
  let demand =
    List.filter
      (fun e ->
        e.Obs.Trace_buf.ev_ctx <> 0
        && chain_has "missing_page" e.Obs.Trace_buf.ev_ctx
        && not (chain_has "read_ahead" e.Obs.Trace_buf.ev_ctx))
      reads
  in
  check Alcotest.bool "demand read carries the fault ctx" true (demand <> []);
  check Alcotest.bool "demand read joins to the user" true
    (List.for_all (fun e -> rooted_in_user e.Obs.Trace_buf.ev_ctx) demand);
  (* 2. A transient read error's retry still serves the same request. *)
  let retries = find Obs.Trace_buf.Instant "io" "retry" in
  check Alcotest.bool "retries traced" true (retries <> []);
  check Alcotest.bool "some retry chains to a page fault" true
    (List.exists
       (fun e ->
         e.Obs.Trace_buf.ev_ctx <> 0
         && chain_has "missing_page" e.Obs.Trace_buf.ev_ctx
         && rooted_in_user e.Obs.Trace_buf.ev_ctx)
       retries);
  (* 3. Read-ahead spawned on the request's behalf is a CHILD of the
     faulting context, so attribution and causality both hold. *)
  let prefetches = find Obs.Trace_buf.Instant "pfm" "read_ahead" in
  check Alcotest.bool "read-ahead traced" true (prefetches <> []);
  check Alcotest.bool "read-ahead is a child of the fault" true
    (List.exists
       (fun e ->
         let ctx = e.Obs.Trace_buf.ev_ctx in
         ctx <> 0
         && Obs.Sink.ctx_origin obs ctx = "read_ahead"
         && chain_has "missing_page" ctx
         && rooted_in_user ctx)
       prefetches);
  (* 4. The join shows up in accounting: the default principal owns
     both cpu time and I/Os. *)
  (match Obs.Sink.user_usage obs ~user:"user" with
  | None -> Alcotest.fail "no per-user attribution row"
  | Some (cpu_ns, ios) ->
      check Alcotest.bool "cpu attributed" true (cpu_ns > 0);
      check Alcotest.bool "ios attributed" true (ios > 0))

(* Critical-path extraction over a hand-built causal tree: root 1 with
   children 2 and 3; 3's work finishes last, so the path is 1 -> 3. *)
let test_critical_path () =
  let buf = Obs.Trace_buf.create ~capacity:16 () in
  let stamp t ctx =
    Obs.Trace_buf.record buf { (ev t "e") with Obs.Trace_buf.ev_ctx = ctx }
  in
  stamp 0 1;
  stamp 10 2;
  stamp 20 2;
  stamp 15 3;
  stamp 40 3;
  stamp 30 1;
  let parent_of = function 2 | 3 -> 1 | _ -> 0 in
  check
    Alcotest.(list (triple int int int))
    "path is root then the late child"
    [ (1, 0, 30); (3, 15, 40) ]
    (Obs.Trace_export.critical_path ~parent_of buf ~ctx:1);
  check
    Alcotest.(list (triple int int int))
    "a leaf's path is itself"
    [ (2, 10, 20) ]
    (Obs.Trace_export.critical_path ~parent_of buf ~ctx:2)

(* ------------------------------------------------------------------ *)
(* SLO watchdogs: breaches fire deterministically — same simulated
   instant across two identical runs, and identical whatever the
   domain count used to run them. *)

let slo_signature () =
  let k = ctx_kernel () in
  let obs = K.Kernel.obs k in
  (* Re-arm low thresholds so the cramped run is guaranteed to breach;
     re-arming resets the view, so the signature is pure. *)
  Obs.Sink.set_slo obs ~histo:"pfm.page_read" ~threshold_ns:1_000;
  ignore
    (K.Kernel.spawn k ~pname:"again"
       (K.Workload.concat
          [ [| K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
            K.Workload.sequential_read ~seg_reg:0 ~pages:48 ]));
  check Alcotest.bool "completes" true (K.Kernel.run_to_completion k);
  K.Kernel.slo_report k

let test_slo_deterministic () =
  let a = slo_signature () in
  check Alcotest.bool "watchdogs fired" true
    (Astring.String.is_infix ~affix:"breaches" a);
  let b = slo_signature () in
  check Alcotest.string "two runs, same breaches at the same instants" a b;
  let under domains =
    Multics_par.Par.run ~domains ~tasks:2 (fun _ -> slo_signature ())
  in
  check
    Alcotest.(list string)
    "domains 1 vs 4 byte-identical"
    (Array.to_list (under 1))
    (Array.to_list (under 4))

let tests =
  [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "histo bucket edges" `Quick test_histo_buckets;
    Alcotest.test_case "histo percentiles" `Quick test_histo_percentiles;
    Alcotest.test_case "counters mode" `Quick test_sink_counters_mode;
    Alcotest.test_case "span nesting + timeline" `Quick
      test_sink_full_nesting;
    Alcotest.test_case "chrome json pairs" `Quick test_chrome_json_pairs;
    Alcotest.test_case "eventcount wait histogram" `Quick test_ec_wait_time;
    Alcotest.test_case "trace off/on clock equality" `Quick
      test_trace_clock_neutral;
    Alcotest.test_case "ctx chains + attribution" `Quick test_ctx_basics;
    QCheck_alcotest.to_alcotest test_ctx_store_model;
    Alcotest.test_case "ctx store bounded" `Quick test_ctx_store_bounded;
    Alcotest.test_case "flight dump text" `Quick test_flight_dump_text;
    Alcotest.test_case "flight dump numbers and chains" `Quick
      test_flight_dump_numbers;
    Alcotest.test_case "ctx crosses faults, retries, read-ahead" `Quick
      test_ctx_propagation;
    Alcotest.test_case "hw.event_pop counts stepped events" `Quick
      test_event_pop_counter;
    Alcotest.test_case "benchmark histograms after a paging run" `Quick
      test_benchmark_histograms;
    Alcotest.test_case "critical path extraction" `Quick test_critical_path;
    Alcotest.test_case "slo watchdogs deterministic" `Quick
      test_slo_deterministic ]
