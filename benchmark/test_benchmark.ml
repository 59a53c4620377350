(* Every workload at a tiny size: two passes with one seed must produce
   byte-identical simulated metrics, another seed must produce another
   arrival stream, and a traced pass must pass its checks without
   moving a simulated value.  Also holds the metric set declared in
   BENCHMARK.json to the one the benchmark prints. *)

module B = Multics_benchmark

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("FAIL " ^ s);
      incr failures)
    fmt

(* A few dozen operations of each workload. *)
let tiny w = B.Bench.size w ~seconds:0.02

let pass (w : B.Bench.workload) seed =
  let r = w.B.Bench.prepare ~n:(tiny w) ~seed () in
  ignore (B.Phase.take ());
  r

let check_workload (w : B.Bench.workload) =
  let name = w.B.Bench.name in
  let a = pass w 1 in
  let b = pass w 1 in
  let c = pass w 2 in
  List.iter (fun p -> fail "%s: %s" name p) a.B.Round.problems;
  if a.B.Round.completed = 0 then fail "%s: no operation completed" name;
  if B.Round.sim_string a <> B.Round.sim_string b then
    fail "%s: seed 1 twice gave different simulated metrics:\n%s---\n%s" name
      (B.Round.sim_string a) (B.Round.sim_string b);
  if a.B.Round.arrivals = c.B.Round.arrivals then
    fail "%s: seeds 1 and 2 gave the same arrival stream" name;
  let traced, _, _ = B.Bench.run_traced w ~n:(tiny w) ~seed:1 in
  List.iter (fun p -> fail "%s traced: %s" name p) traced.B.Bench.problems;
  Printf.printf "%-12s ok: %d ops, p50 %d ns, arrivals %s\n" name
    a.B.Round.completed (B.Round.percentile a 50) a.B.Round.arrivals

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let check_declared () =
  let json = read_file "../BENCHMARK.json" in
  let declared = B.Metrics.end_to_end @ B.Metrics.per_layer in
  List.iter
    (fun (name, unit) ->
      let entry = Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"," name unit in
      if count_sub json entry <> 1 then
        fail "BENCHMARK.json does not declare %s in %s once" name unit)
    declared;
  if count_sub json "\"unit\": " <> List.length declared then
    fail "BENCHMARK.json declares metrics the benchmark does not print";
  List.iter
    (fun (w : B.Bench.workload) ->
      if count_sub json (Printf.sprintf "{\"name\": \"%s\", \"why\"" w.B.Bench.name) <> 1
      then fail "BENCHMARK.json does not declare workload %s" w.B.Bench.name)
    B.Bench.workloads

let () =
  List.iter check_workload B.Bench.workloads;
  check_declared ();
  if !failures > 0 then exit 1
