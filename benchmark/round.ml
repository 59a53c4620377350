(* What one measured pass of a workload produced, in simulated terms.
   The harness adds the host-time measurements around it. *)

type t = {
  attempted : int;  (** operations the generator issued *)
  completed : int;
  failed : int;  (** login errors + failed processes + oracle violations *)
  lateness_ns : int;  (** latest any arrival fired after its due instant *)
  latencies_ns : int array;
      (** simulated due-to-done time of each completed operation, sorted *)
  arrivals : string;  (** digest of the generated arrival stream *)
  problems : string list;  (** failed correctness checks *)
  layers : (string * float * string) list;
      (** simulated per-layer metrics: name, value, unit *)
  notes : (string * string) list;  (** facts recorded with the result *)
}

let make ~attempted ~completed ~failed ~lateness_ns ~latencies ~arrivals
    ~problems ~layers ~notes =
  let latencies_ns = Array.of_list latencies in
  Array.sort compare latencies_ns;
  let problems =
    (if attempted <> completed + failed then
       [ Printf.sprintf "attempted %d <> completed %d + failed %d" attempted
           completed failed ]
     else [])
    @ (if lateness_ns <> 0 then
         [ Printf.sprintf "generator ran %d ns late" lateness_ns ]
       else [])
    @ problems
  in
  { attempted; completed; failed; lateness_ns; latencies_ns; arrivals;
    problems; layers; notes }

(* Nearest-rank percentile of the sorted sample, in simulated ns. *)
let percentile t pct =
  let n = Array.length t.latencies_ns in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (float_of_int (pct * n) /. 100.0)) in
    t.latencies_ns.(max 0 (min (n - 1) (rank - 1)))

let digest_of_buffer b = Digest.to_hex (Digest.string (Buffer.contents b))

(* Every simulated value of the pass, rendered exactly: two passes over
   the same inputs must produce the same string. *)
let sim_string t =
  let b = Buffer.create 256 in
  Printf.bprintf b "attempted=%d completed=%d failed=%d lateness=%d arrivals=%s\n"
    t.attempted t.completed t.failed t.lateness_ns t.arrivals;
  let lat = Buffer.create (8 * Array.length t.latencies_ns) in
  Array.iter (fun v -> Printf.bprintf lat "%d," v) t.latencies_ns;
  Printf.bprintf b "latencies=%d:%s p50=%d p99=%d\n"
    (Array.length t.latencies_ns) (digest_of_buffer lat) (percentile t 50)
    (percentile t 99);
  List.iter (fun (n, v, u) -> Printf.bprintf b "%s=%.17g %s\n" n v u) t.layers;
  Buffer.contents b
