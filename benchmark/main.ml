(* The benchmark's command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--trace-dir DIR] [--commit ID]

   Prints every metric as "name value unit", then, as the last line, a
   JSON object with the keys correct, attempted, failed and metrics:
   the end-to-end metrics untraced, the per-layer metrics traced.  Exits
   1 when a correctness check fails. *)

module B = Multics_benchmark

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 13.0 in
  let trace = ref 0 and out = ref "" and trace_dir = ref "benchmark/traces" in
  let commit = ref "unknown" in
  let names = String.concat ", " (List.map (fun w -> w.B.Bench.name) B.Bench.workloads) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is held out)");
      ("--seconds", Arg.Set_float seconds,
       "S size the pass to take about S host seconds (default 13)");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--out", Arg.Set_string out, "FILE also write the full result as JSON");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write");
      ("--commit", Arg.Set_string commit, "ID source revision to stamp") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [options]";
  let w =
    match B.Bench.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "; expected one of: " ^ names);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seed < 1 then (prerr_endline "--seed must be at least 1"; exit 2);
  if not (!seconds > 0.0) then (prerr_endline "--seconds must be positive"; exit 2);
  let n = B.Bench.size w ~seconds:!seconds in
  let stamp =
    [ ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", B.Metrics.json_string Sys.ocaml_version);
      ("seed", string_of_int !seed);
      ("seconds", B.Metrics.json_number !seconds);
      ("operations", string_of_int n);
      ("commit", B.Metrics.json_string !commit) ]
  in
  let res =
    if !trace = 0 then B.Bench.run_untraced w ~n ~seed:!seed
    else begin
      let res, spans, rows = B.Bench.run_traced w ~n ~seed:!seed in
      (try Sys.mkdir !trace_dir 0o755 with Sys_error _ -> ());
      let base = Filename.concat !trace_dir (Printf.sprintf "%s-seed%d" w.B.Bench.name !seed) in
      let write path s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      let table = Format.asprintf "%a" (B.Trace.pp_table ~root:"measure") rows in
      write (base ^ ".trace.json") (B.Trace.chrome_json spans);
      write (base ^ ".layers.txt") table;
      print_string table;
      Printf.printf "trace %s.trace.json\n" base;
      res
    end
  in
  let r = res.B.Bench.round in
  let correct = res.B.Bench.problems = [] in
  (* A failed check counts against the run as a failed operation. *)
  let failed = r.B.Round.failed + List.length res.B.Bench.problems in
  let fail_share = float_of_int failed /. float_of_int (max 1 r.B.Round.attempted) in
  List.iter (fun (k, v) -> Printf.printf "stamp %s %s\n" k v) stamp;
  Printf.printf "workload %s\n" w.B.Bench.name;
  Printf.printf "attempted %d completed %d failed %d fail_share %.6f\n"
    r.B.Round.attempted r.B.Round.completed failed fail_share;
  Printf.printf "setup_s samples %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") res.B.Bench.setup_s));
  Printf.printf "measured_s %.3f\n" (B.Bench.seconds res.B.Bench.phase.B.Phase.host_ns);
  (let q p = B.Bench.quantile p res.B.Bench.windows in
   Printf.printf "host_ops_per_s over %d windows: p25 %.1f p50 %.1f p75 %.1f\n"
     (List.length res.B.Bench.windows) (q 0.25) (q 0.5) (q 0.75));
  Printf.printf "latency samples %d\n" (Array.length r.B.Round.latencies_ns);
  List.iter (fun (k, v) -> Printf.printf "note %s %s\n" k v) r.B.Round.notes;
  List.iter (fun p -> Printf.printf "problem %s\n" p) res.B.Bench.problems;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %.10g %s\n" name v unit)
    res.B.Bench.metrics;
  let metrics = B.Metrics.json_metrics res.B.Bench.metrics in
  let json_list xs = "[" ^ String.concat ", " (List.map B.Metrics.json_number xs) ^ "]" in
  if !out <> "" then begin
    let oc = open_out !out in
    output_string oc
      (B.Metrics.json_object
         [ ("workload", B.Metrics.json_string w.B.Bench.name);
           ("seed", string_of_int !seed);
           ("trace", string_of_int !trace);
           ("stamp", B.Metrics.json_object stamp);
           ("correct", string_of_bool correct);
           ("attempted", string_of_int r.B.Round.attempted);
           ("completed", string_of_int r.B.Round.completed);
           ("failed", string_of_int failed);
           ("fail_share", B.Metrics.json_number fail_share);
           ("setup_s_samples", json_list res.B.Bench.setup_s);
           ("window_ops_per_s", json_list res.B.Bench.windows);
           ("metrics", metrics);
           ("notes",
            B.Metrics.json_object
              (List.map (fun (k, v) -> (k, B.Metrics.json_string v)) r.B.Round.notes));
           ("problems",
            "[" ^ String.concat ", " (List.map B.Metrics.json_string res.B.Bench.problems) ^ "]")
         ]);
    output_string oc "\n";
    close_out oc
  end;
  print_endline
    (B.Metrics.json_object
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int r.B.Round.attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics) ]);
  exit (if correct then 0 else 1)
