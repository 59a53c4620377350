(* The benchmark's metric set: names and units, in the order they are
   printed.  BENCHMARK.json at the repository root declares the same
   set (the test in this directory holds them together). *)

let end_to_end =
  [ ("setup_s", "s");
    ("host_ops_per_s", "1/s");
    ("sim_latency_p50_ms", "ms");
    ("sim_latency_p99_ms", "ms");
    ("host_peak_heap_mb", "MB") ]

let per_layer =
  [ ("hw.events_per_op", "events/op");
    ("hw.step_host_ns", "ns");
    ("io.reads_per_op", "reads/op");
    ("io.writes_per_op", "writes/op");
    ("io.mean_batch", "records");
    ("io.merges", "count");
    ("io.queue_peak", "requests");
    ("io.busy_ms_per_op", "ms");
    ("pfm.faults_per_op", "faults/op");
    ("pfm.evictions_per_op", "evictions/op");
    ("pfm.prefetch_useful", "ratio");
    ("pfm.page_read_mean_ms", "ms");
    ("seg.activations_per_op", "count/op");
    ("ns.path_hit_ratio", "ratio");
    ("tlb.hit_ratio", "ratio");
    ("dir.sim_ns_per_op", "ns");
    ("gate.calls_per_op", "calls/op");
    ("vp.dispatches_per_op", "count/op");
    ("sched.ready_wait_mean_ms", "ms");
    ("as.login_host_us", "us");
    ("as.login_sim_ns", "ns");
    ("cluster.barriers_per_op", "count/op");
    ("cluster.messages_per_op", "count/op");
    ("cluster.remote_share", "ratio");
    ("cluster.run_host_s", "s");
    ("cluster.register_host_s", "s");
    ("check.boot_share", "%");
    ("check.run_share", "%");
    ("check.oracle_share", "%");
    ("check.flight_dump_share", "%");
    ("check.explorer_self_share", "%");
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_per_kop", "count");
    ("par.speedup_2v1", "x");
    ("trace.overhead_pct", "%");
    ("trace.attributed_pct", "%") ]

(* Values for the declared names, in declared order.  A layer the
   workload does not exercise reads 0; a value under a name that is not
   declared, or with another unit, is a bug in the benchmark. *)
let select declared values =
  List.iter
    (fun (name, _, unit) ->
      match List.assoc_opt name declared with
      | Some u when u = unit -> ()
      | Some u ->
          invalid_arg (Printf.sprintf "metric %s: unit %s, declared %s" name unit u)
      | None -> invalid_arg ("undeclared metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) values with
      | Some (_, v, _) -> (name, v, unit)
      | None -> (name, 0.0, unit))
    declared

(* JSON numbers with every digit; non-finite values cannot occur in a
   valid run and are written as 0 so the line still parses. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics values =
  json_object
    (List.map
       (fun (name, v, unit) ->
         ( name,
           json_object [ ("value", json_number v); ("unit", json_string unit) ] ))
       values)
