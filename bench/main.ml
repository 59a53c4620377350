(* The benchmark harness: regenerates every table and figure of
   "The Multics Kernel Design Project" (SOSP 1977).

     dune exec bench/main.exe              -- all paper experiments
     dune exec bench/main.exe -- T1 P4     -- selected sections
     dune exec bench/main.exe -- micro     -- bechamel micro-benchmarks

   See EXPERIMENTS.md for the experiment index and paper-vs-measured
   notes. *)

let sections =
  [ ("T1", "kernel size table + census", Bench_size.run);
    ("F2", "figures 2-4 and conformance audits", Bench_figures.run);
    ("P1", "performance experiments P1-P5, S2, S3, S5", Bench_perf.run);
    ("A1", "design-choice ablations", Bench_ablation.run);
    ("C1", "associative memories: off vs on + equality", Bench_cache.run);
    ("C2", "batched disk I/O: sync vs async vs read-ahead", Bench_io.run);
    ("C3", "observability: trace counters vs full equality", Bench_obs.run);
    ("C4", "chaos: fault injection, sparing, crash recovery", Bench_chaos.run);
    ("C5", "schedule exploration: model-checking scheduler", Bench_check.run);
    ("C6", "overload: deadlines, breakers, brownout", Bench_overload.run);
    ("C7", "cluster: sharded computing utility at 1e5 users", Bench_cluster.run);
    ("micro", "bechamel wall-clock micro-benchmarks", Bench_micro.run) ]

let default_sections =
  [ "T1"; "F2"; "P1"; "A1"; "C1"; "C2"; "C3"; "C4"; "C5"; "C6"; "C7"; "micro" ]

let aliases =
  [ ("T1", "T1"); ("S1", "T1"); ("S4", "T1"); ("S6", "T1");
    ("F2", "F2"); ("F3", "F2"); ("F4", "F2");
    ("P1", "P1"); ("P2", "P1"); ("P3", "P1"); ("P4", "P1"); ("P5", "P1");
    ("S2", "P1"); ("S3", "P1"); ("S5", "P1");
    ("A1", "A1"); ("A2", "A1");
    ("C1", "C1"); ("CACHE", "C1"); ("SMOKE", "C1");
    ("C2", "C2"); ("IO", "C2");
    ("C3", "C3"); ("TRACE", "C3"); ("OBS", "C3");
    ("C4", "C4"); ("CHAOS", "C4"); ("FAULTS", "C4");
    ("C5", "C5"); ("CHECK", "C5"); ("EXPLORE", "C5");
    ("C6", "C6"); ("OVERLOAD", "C6"); ("BROWNOUT", "C6");
    ("C7", "C7"); ("CLUSTER", "C7"); ("UTILITY", "C7");
    ("micro", "micro") ]

(* `--smoke` and `smoke` both select the cache section. *)
let strip_dashes s =
  let i = ref 0 in
  while !i < String.length s && s.[!i] = '-' do incr i done;
  String.sub s !i (String.length s - !i)

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> default_sections
  in
  let wanted =
    List.filter_map
      (fun arg ->
        let arg = strip_dashes arg in
        List.assoc_opt (String.uppercase_ascii arg) aliases
        |> function
        | Some s -> Some s
        | None -> List.assoc_opt arg aliases)
      requested
    |> List.sort_uniq compare
  in
  let wanted = if wanted = [] then default_sections else wanted in
  Format.printf
    "The Multics Kernel Design Project (SOSP 1977) — experiment harness@.";
  Format.printf "sections: %s@." (String.concat ", " wanted);
  (* A section that fails its acceptance checks does not stop the run:
     the later sections still run and BENCH_perf.json is still written.
     The failed section's own rows are dropped, so the file keeps its
     committed ones, and the run exits 2 naming it. *)
  let failed =
    List.filter_map
      (fun (id, _desc, run) ->
        if not (List.mem id wanted) then None
        else
          let saved = !Bench_util.metrics in
          match run () with
          | () -> None
          | exception e ->
              Bench_util.metrics := saved;
              Format.printf "@.section %s FAILED: %s@." id
                (Printexc.to_string e);
              Some id)
      sections
  in
  Bench_util.write_metrics ~path:"BENCH_perf.json";
  if failed <> [] then begin
    Format.printf "@.failed sections: %s@." (String.concat ", " failed);
    exit 2
  end;
  Format.printf "@.done.@."
