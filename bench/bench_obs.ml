(* C3: observability must be free.

   The tracing sink never charges the meter and never touches the event
   queue, so switching [trace] between [Counters] and [Full] must not
   move the simulated clock by a single nanosecond or change a single
   word on disk.  Both modes keep the request contexts and SLO
   watchdogs the overload plane reads, so the mode cannot disarm
   control either.  This section runs two legs once per trace mode and
   FAILS unless:

     - the C2 sequential sweep — a writer fills a 48-page file through
       write-behind, a reader sweeps it back through missing-page
       faults — finishes with identical simulated clocks and leaves
       bit-identical disks (Bench_util.disk_checksum);
     - C6's controlled overload run (deadlines, retry budget, breakers,
       brownout) acts, and gives an identical clock, disk, goodput,
       process timeouts, brownout escalations and shed logins;
     - the [Full] ring actually captured the fault story: paired
       ["pfm"/"page_read"] transits, paired ["io"/"batch"] dispatches,
       and at least one batch nested inside a page-read transit.

   It also prints the latency histograms and exports the [Full] ring as
   Chrome trace_event JSON (BENCH_trace_c3.json) so the whole life of a
   fault — TLB miss, missing-page fault, elevator enqueue, batch
   dispatch, transit-eventcount wakeup — can be read as nested spans in
   chrome://tracing or Perfetto. *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw
module Obs = Multics_obs

let sec = "C3"
let pages = 48

(* Same cramped machine as C2: more file pages than pageable frames,
   with the elevator and read-ahead on so the trace has I/O to show. *)
let base_config =
  { K.Kernel.default_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    core_frames = 24;
    use_io_sched = true;
    read_ahead = 2 }

let reader_program =
  K.Workload.concat
    [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
      K.Workload.sequential_read ~seg_reg:0 ~pages ]

type run = {
  r_label : string;
  r_clock : int;
  r_disk : int;
  r_kernel : K.Kernel.t;
}

let run_mode ~label mode =
  let config = { base_config with K.Kernel.trace = mode } in
  let k = Bench_util.boot_new ~config () in
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages));
  let ok1 = K.Kernel.run_to_completion k in
  ignore (K.Kernel.spawn k ~pname:"reader" reader_program);
  let ok2 = K.Kernel.run_to_completion k in
  let r_clock = K.Kernel.now k in
  K.Kernel.shutdown k;
  if not (ok1 && ok2) then
    failwith (Printf.sprintf "bench_obs: %s run did not complete" label);
  let r_disk = Bench_util.disk_checksum k in
  Format.printf "  trace=%-10s clock %12s   disk %016x@." label
    (Bench_util.fmt_us r_clock) r_disk;
  { r_label = label; r_clock; r_disk; r_kernel = k }

let check_same what f a b =
  if f a <> f b then
    failwith
      (Printf.sprintf
         "bench_obs: trace=%s and trace=%s diverge on %s — tracing \
          perturbed the simulation"
         a.r_label b.r_label what)

(* The armed-plane leg: what C6's controlled run shows at its window's
   end.  The disk is read as it stands, with sessions still running. *)
type armed = {
  a_clock : int;
  a_disk : int;
  a_goodput : int;
  a_timeouts : int;
  a_escalations : int;
  a_shed : int;
}

let armed_mode ~label mode =
  let k, svc, goodput, _p95, _late =
    Bench_overload.overload_run ~trace:mode ~controlled:true
  in
  let a =
    { a_clock = K.Kernel.now k; a_disk = Bench_util.disk_checksum k;
      a_goodput = goodput; a_timeouts = K.Kernel.proc_timeouts k;
      a_escalations = K.Kernel.brownout_escalations k;
      a_shed = S.Answering_service.shed_logins svc }
  in
  Format.printf
    "  armed plane trace=%-10s clock %12s   disk %016x   goodput %d, %d \
     timeouts, %d escalations, %d logins shed@."
    label (Bench_util.fmt_us a.a_clock) a.a_disk a.a_goodput a.a_timeouts
    a.a_escalations a.a_shed;
  a

(* The ring overwrites its oldest events, so a begin may be gone while
   its end survives; pair conservatively, newest events backwards. *)
let matched_pairs evs ~cat ~name =
  let open Obs.Trace_buf in
  let begins = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.ev_cat = cat && e.ev_name = name && e.ev_phase = Async_begin then
        Hashtbl.replace begins e.ev_id e.ev_time)
    evs;
  List.filter_map
    (fun e ->
      if e.ev_cat = cat && e.ev_name = name && e.ev_phase = Async_end then
        match Hashtbl.find_opt begins e.ev_id with
        | Some t0 when t0 <= e.ev_time -> Some (t0, e.ev_time)
        | _ -> None
      else None)
    evs

let check_nesting k =
  let events = Obs.Trace_buf.events (Obs.Sink.buf (K.Kernel.obs k)) in
  let transits = matched_pairs events ~cat:"pfm" ~name:"page_read" in
  let batches = matched_pairs events ~cat:"io" ~name:"batch" in
  if transits = [] then
    failwith "bench_obs: Full trace captured no paired page-read transits";
  if batches = [] then
    failwith "bench_obs: Full trace captured no paired disk batches";
  let nested =
    List.exists
      (fun (b0, b1) ->
        List.exists (fun (t0, t1) -> t0 <= b0 && b1 <= t1) transits)
      batches
  in
  if not nested then
    failwith
      "bench_obs: no disk batch nested inside a page-read transit — the \
       fault timeline does not hang together";
  let faults =
    List.length
      (List.filter
         (fun e ->
           e.Obs.Trace_buf.ev_cat = "fault"
           && e.Obs.Trace_buf.ev_phase = Obs.Trace_buf.Span_begin)
         events)
  in
  Format.printf
    "  ring: %d events (%d dropped), %d transit pairs, %d batch pairs, %d \
     fault spans@."
    (List.length events)
    (Obs.Trace_buf.dropped (Obs.Sink.buf (K.Kernel.obs k)))
    (List.length transits) (List.length batches) faults;
  (List.length transits, List.length batches)

let export_trace k ~path =
  let json = K.Kernel.chrome_trace k in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.printf "  chrome trace -> %s (%d bytes)@." path (String.length json)

let run () =
  Bench_util.section sec
    "observability: structured tracing is clock- and disk-neutral";
  let counters = run_mode ~label:"counters" Obs.Sink.Counters in
  let full = run_mode ~label:"full" Obs.Sink.Full in
  check_same "final simulated clock" (fun r -> r.r_clock) counters full;
  check_same "disk contents" (fun r -> r.r_disk) counters full;
  Format.printf "  counters/full clocks and disks identical@.@.";
  let armed_counters = armed_mode ~label:"counters" Obs.Sink.Counters in
  let armed_full = armed_mode ~label:"full" Obs.Sink.Full in
  if armed_counters.a_timeouts = 0 || armed_counters.a_escalations = 0 then
    failwith "bench_obs: the armed overload plane never acted";
  if armed_counters <> armed_full then
    failwith
      "bench_obs: trace=counters and trace=full diverge with the overload \
       plane armed — the trace mode reached control";
  Format.printf "  armed plane identical under counters and full@.@.";
  let transits, batches = check_nesting full.r_kernel in
  export_trace full.r_kernel ~path:"BENCH_trace_c3.json";
  Format.printf "@.%s@." (K.Kernel.histo_report full.r_kernel);
  let page_read =
    List.find_opt
      (fun h -> Obs.Histo.name h = "pfm.page_read")
      (Obs.Sink.histos (K.Kernel.obs full.r_kernel))
  in
  (match page_read with
  | None -> failwith "bench_obs: no pfm.page_read latency histogram"
  | Some h ->
      if Obs.Histo.count h = 0 then
        failwith "bench_obs: pfm.page_read histogram is empty";
      Bench_util.recordi ~section:sec ~metric:"page_read_p50_ns"
        (Obs.Histo.percentile h ~pct:50);
      Bench_util.recordi ~section:sec ~metric:"page_read_p95_ns"
        (Obs.Histo.percentile h ~pct:95));
  Bench_util.recordi ~section:sec ~metric:"clock_counters_ns" counters.r_clock;
  Bench_util.recordi ~section:sec ~metric:"clock_full_ns" full.r_clock;
  Bench_util.recordi ~section:sec ~metric:"clock_skew_ns"
    (full.r_clock - counters.r_clock);
  Bench_util.recordi ~section:sec ~metric:"ctx_count" ~unit:"count"
    (Obs.Sink.ctx_count (K.Kernel.obs full.r_kernel));
  Bench_util.recordi ~section:sec ~metric:"ring_transit_pairs" ~unit:"count"
    transits;
  Bench_util.recordi ~section:sec ~metric:"ring_batch_pairs" ~unit:"count"
    batches;
  (* The always-on flight recorder's dump, persisted for CI to byte-diff
     across double runs: its determinism is part of the contract. *)
  let dump = K.Kernel.flight_dump full.r_kernel in
  let oc = open_out "BENCH_flight_c3.txt" in
  output_string oc dump;
  close_out oc;
  Format.printf "  flight dump -> BENCH_flight_c3.txt (%d bytes)@."
    (String.length dump)
