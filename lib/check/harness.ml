module Hw = Multics_hw
module Sync = Multics_sync
module K = Multics_kernel
module Choice = Multics_choice.Choice

let step_cost = 100

let run_eventcount_full ?(bug = false) ?(events = 2) choice =
  let hw = Hw.Hw_config.with_cpus Hw.Hw_config.kernel_multics 1 in
  let machine = Hw.Machine.create ~disk_packs:1 ~records_per_pack:8 hw in
  (* A Counters sink arms the flight recorder: [Vp.bind] roots a
     context per VP and the eventcount instants carry them, so a
     counterexample's dump shows WHO waited and WHO advanced. *)
  let obs =
    Multics_obs.Sink.create ~mode:Multics_obs.Sink.Counters
      ~now:(fun () -> Hw.Machine.now machine)
      ()
  in
  Hw.Machine.set_obs machine obs;
  let meter = K.Meter.create () in
  let core = K.Core_segment.create ~machine ~meter ~reserved_frames:4 in
  let vp = K.Vp.create ~choice ~machine ~meter ~core ~n_vps:2 () in
  let ec = Sync.Eventcount.create ~name:"harness" ~obs ~choice () in
  let produced = ref 0 in
  K.Vp.bind vp ~vp_id:0 ~name:"producer" ~step:(fun _ ->
      if !produced >= events then K.Vp.Stopped step_cost
      else begin
        incr produced;
        Sync.Eventcount.advance ec;
        K.Vp.Continue step_cost
      end);
  K.Vp.bind vp ~vp_id:1 ~name:"consumer" ~step:(fun _ ->
      let r = Sync.Eventcount.read ec in
      if r >= events then K.Vp.Stopped step_cost
        (* The bug: wait for two more events ("they come in batches").
           When the sample lands at [events - 1] the threshold exceeds
           everything the producer will ever advance to — the wakeup
           never comes.  The correct level threshold [r + 1] is what the
           wakeup-waiting switch makes schedule-proof. *)
      else if bug then K.Vp.Wait (ec, r + 2, step_cost)
      else K.Vp.Wait (ec, r + 1, step_cost));
  K.Vp.kick vp;
  Hw.Machine.run machine;
  (* Quiescent: the event queue is drained.  Both VPs must have stopped
     and their wired state words must agree with the manager. *)
  let problems = ref [] in
  for i = 1 downto 0 do
    let v = K.Vp.vp vp i in
    (match v.K.Vp.vp_state with
    | `Idle -> ()
    | state ->
        let state_name =
          match state with
          | `Ready -> "ready"
          | `Running -> "running"
          | `Waiting -> "waiting"
          | `Idle -> assert false
        in
        problems :=
          Printf.sprintf
            "lost wakeup: vp %d (%s) %s at quiescence (ec=%d of %d)" i
            (Option.value ~default:"?" v.K.Vp.bound_to)
            state_name (Sync.Eventcount.read ec) events
          :: !problems);
    if not (K.Vp.state_word_agrees vp i) then
      problems :=
        Printf.sprintf "vp %d: wired state word disagrees" i :: !problems
  done;
  (* A violated run deserves the same automatic dump point as the
     kernel's invariant checker. *)
  if !problems <> [] then Multics_obs.Sink.note_dump obs;
  (!problems, Multics_obs.Sink.flight_dump obs)

let eventcount_system ?bug ?events () =
  let flight = ref "" in
  { Explore.sys_name = "eventcount";
    sys_run =
      (fun c ->
        let problems, dump = run_eventcount_full ?bug ?events c in
        flight := dump;
        problems);
    sys_flight = Some (fun () -> !flight) }

(* A ping-pong pair: each process advances the other's eventcount and
   waits on its own, with a little paging traffic in between. *)
let pingpong_program ~me ~peer ~rounds =
  Array.concat
    (List.init rounds (fun i ->
         [| K.Workload.Compute 2_000;
            K.Workload.Advance_ec { ec = peer };
            K.Workload.Await_ec { ec = me; value = i + 1 } |])
     @ [ [| K.Workload.Terminate |] ])

let kernel_system ?config ?(n_procs = 2) () =
  let base = Option.value ~default:K.Kernel.small_config config in
  let flight = ref "" in
  let run choice =
    let kernel = K.Kernel.boot { base with K.Kernel.choice = Some choice } in
    let n = max 2 n_procs in
    for i = 0 to n - 1 do
      let me = Printf.sprintf "ec%d" i in
      let peer = Printf.sprintf "ec%d" ((i + 1) mod n) in
      ignore
        (K.Kernel.spawn kernel ~pname:(Printf.sprintf "pp%d" i)
           (pingpong_program ~me ~peer ~rounds:3))
    done;
    ignore (K.Kernel.run_to_completion kernel);
    let problems = Oracle.check kernel in
    flight := K.Kernel.flight_dump kernel;
    problems
  in
  { Explore.sys_name = "kernel-pingpong"; sys_run = run;
    sys_flight = Some (fun () -> !flight) }

(* ------------------------------------------------------------------ *)
(* The breaker harness: the I/O scheduler alone, under transient
   faults, with the circuit breaker armed.

   One pack, one arm, three reads submitted in one instant — one
   sweep.  Records 0 and 2 each fail their first attempt; record 1 is
   clean.  The sweep's completions are serviced in strategy order
   (domain ["io.deliver"]), and every retry's backoff draws its jitter
   through ["io.backoff"] — so the explorer enumerates exactly the
   overload plane's interleavings and nothing else.

   The invariant side: at [breaker_threshold = 3] two transient
   faults can never align into a trip, so whatever the order both
   transients recover, all three reads deliver the right images, and
   the breaker is closed at quiescence.

   The seeded bug is a mis-tuned claim, not a code change: it drops
   the threshold to the noise floor ([breaker_threshold = 2]) and
   asserts the breaker still never trips on transient noise.  Under
   the default sweep order the clean record's success lands between
   the two failures and resets the consecutive-failure count — the
   claim holds.  The explorer finds the delivery orders where the two
   unrelated transients align, needlessly tripping the pack open (and
   fast-failing the still-queued reads), and shrinks the schedule to
   the minimal reorder. *)

let run_breaker_full ?(bug = false) choice =
  let hw = Hw.Hw_config.with_cpus Hw.Hw_config.kernel_multics 1 in
  let machine = Hw.Machine.create ~disk_packs:1 ~records_per_pack:8 hw in
  let obs =
    Multics_obs.Sink.create ~mode:Multics_obs.Sink.Counters
      ~now:(fun () -> Hw.Machine.now machine)
      ()
  in
  Hw.Machine.set_obs machine obs;
  let disk = machine.Hw.Machine.disk in
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:0 ~times:1;
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:2 ~times:1;
  let config =
    { (Hw.Io_sched.config_of_disk disk) with
      Hw.Io_sched.pack_ways = 1;
      retry_limit = 8;
      breaker_threshold = (if bug then 2 else 3);
      breaker_cooldown_ns = 2 * Hw.Disk.io_latency_ns disk }
  in
  let io =
    Hw.Io_sched.create ~config ~faults ~choice
      ~now:(fun () -> Hw.Machine.now machine)
      ~disk ~schedule:(Hw.Machine.schedule machine) ()
  in
  Hw.Io_sched.set_obs io obs;
  for r = 0 to 2 do
    let words = Array.make Hw.Addr.page_size 0 in
    words.(0) <- 100 + r;
    Hw.Disk.write_record disk ~pack:0 ~record:r (Hw.Page_image.of_words words)
  done;
  let got = Array.make 3 None in
  for r = 0 to 2 do
    Hw.Io_sched.submit_read io ~pack:0 ~record:r ~done_:(fun res ->
        got.(r) <- Some res)
  done;
  Hw.Machine.run machine;
  let stats = Hw.Io_sched.stats io in
  let problems = ref [] in
  for r = 2 downto 0 do
    match got.(r) with
    | None ->
        problems := Printf.sprintf "read %d never completed" r :: !problems
    | Some (Error e) ->
        problems :=
          Format.asprintf "read %d failed: %a" r Hw.Io_sched.pp_io_error e
          :: !problems
    | Some (Ok img) ->
        if Hw.Page_image.get img 0 <> 100 + r then
          problems := Printf.sprintf "read %d returned wrong image" r :: !problems
  done;
  (match Hw.Io_sched.breaker_state io ~pack:0 with
  | `Closed -> ()
  | `Open | `Half_open ->
      problems := "breaker left open at quiescence" :: !problems);
  if bug && stats.Hw.Io_sched.s_breaker_opens > 0 then
    problems :=
      Printf.sprintf "breaker tripped under transient noise (opened %d)"
        stats.Hw.Io_sched.s_breaker_opens
      :: !problems;
  if !problems <> [] then Multics_obs.Sink.note_dump obs;
  (!problems, Multics_obs.Sink.flight_dump obs)

let breaker_system ?bug () =
  let flight = ref "" in
  { Explore.sys_name = "io-breaker";
    sys_run =
      (fun c ->
        let problems, dump = run_breaker_full ?bug c in
        flight := dump;
        problems);
    sys_flight = Some (fun () -> !flight) }
