(* Per-layer counters of one kernel, read through its public accessors.

   A snapshot is taken after set-up and again after the measured phase;
   the difference is what the measured operations did.  Everything here
   is simulated (counts and cost-model nanoseconds), so it repeats
   exactly for a seed. *)

module K = Multics_kernel
module Obs = Multics_obs

(* Counter name -> value, always in the order [of_kernel] gives. *)
type t = (string * int) list

(* The one counter that is a high-water mark, not a count. *)
let peak = "io.queue_peak"

(* Histograms are created on first use; reading one that does not exist
   yet would create it, so look it up among the existing ones.  A
   histogram gives two counters: its sample count and its summed ns. *)
let histo obs name =
  let count, sum =
    match List.find_opt (fun h -> Obs.Histo.name h = name) (Obs.Sink.histos obs) with
    | Some h -> (Obs.Histo.count h, Obs.Histo.sum h)
    | None -> (0, 0)
  in
  [ (name ^ ".count", count); (name ^ ".ns", sum) ]

let of_kernel k : t =
  let obs = K.Kernel.obs k in
  let io = K.Kernel.io_stats k in
  let caches = K.Kernel.stats k in
  let pfm = K.Kernel.page_frame k in
  [ ("hw.event_pop",
     Option.value ~default:0 (List.assoc_opt "hw.event_pop" (Obs.Sink.counters obs)));
    ("gate.calls", K.Gate.calls_total (K.Kernel.gate k));
    ("vp.dispatches", K.Vp.dispatches (K.Kernel.vp k));
    ("seg.activations", K.Segment.activations (K.Kernel.segment k));
    ("pfm.faults", K.Page_frame.faults_served pfm);
    ("pfm.evictions", K.Page_frame.evictions pfm);
    ("io.prefetch_issued", io.K.Kernel.prefetch_issued);
    ("io.prefetch_hits", io.K.Kernel.prefetch_hits);
    ("io.reads", io.K.Kernel.io_reads);
    ("io.writes", io.K.Kernel.io_writes);
    ("io.batches", io.K.Kernel.io_batches);
    ("io.merges", io.K.Kernel.io_merges);
    ("io.busy_ns", io.K.Kernel.io_busy_ns);
    (peak, io.K.Kernel.io_queue_peak);
    ("ns.path_hits", caches.K.Kernel.path_hits);
    ("ns.path_misses", caches.K.Kernel.path_misses);
    ("tlb.hits", caches.K.Kernel.tlb_hits);
    ("tlb.misses", caches.K.Kernel.tlb_misses);
    ("dir.ns",
     Option.value ~default:0
       (List.assoc_opt K.Registry.directory_manager
          (K.Meter.by_manager (K.Kernel.meter k)))) ]
  @ histo obs "pfm.page_read" @ histo obs "sched.ready_wait" @ histo obs "as.login"

(* No kernel yet: the identity of [add]. *)
let zero : t = []

let combine ~count ~high a b =
  if a = [] then b
  else if b = [] then a
  else List.map2 (fun (n, x) (_, y) -> (n, if n = peak then high x y else count x y)) a b

(* Sums over kernels (cluster shards, explored schedules); the queue
   peak is the deepest any of them reached. *)
let add = combine ~count:( + ) ~high:max

(* What happened between two snapshots of one kernel; the queue peak
   keeps its value at [after]. *)
let diff ~before ~after = combine ~count:(fun b a -> a - b) ~high:(fun _ a -> a) before after

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let get (d : t) name = Option.value ~default:0 (List.assoc_opt name d)

(* The simulated per-layer metrics: [(name, value, unit)], per completed
   operation where the name says so. *)
let layers d ~ops =
  let v = get d in
  let per n = ratio (v n) ops in
  [ ("hw.events_per_op", per "hw.event_pop", "events/op");
    ("io.reads_per_op", per "io.reads", "reads/op");
    ("io.writes_per_op", per "io.writes", "writes/op");
    ("io.mean_batch", ratio (v "io.reads" + v "io.writes") (v "io.batches"), "records");
    ("io.merges", float_of_int (v "io.merges"), "count");
    ("io.queue_peak", float_of_int (v peak), "requests");
    ("io.busy_ms_per_op", per "io.busy_ns" /. 1e6, "ms");
    ("pfm.faults_per_op", per "pfm.faults", "faults/op");
    ("pfm.evictions_per_op", per "pfm.evictions", "evictions/op");
    ("pfm.prefetch_useful", ratio (v "io.prefetch_hits") (v "io.prefetch_issued"), "ratio");
    ("pfm.page_read_mean_ms",
     ratio (v "pfm.page_read.ns") (v "pfm.page_read.count") /. 1e6, "ms");
    ("seg.activations_per_op", per "seg.activations", "count/op");
    ("ns.path_hit_ratio",
     ratio (v "ns.path_hits") (v "ns.path_hits" + v "ns.path_misses"), "ratio");
    ("tlb.hit_ratio", ratio (v "tlb.hits") (v "tlb.hits" + v "tlb.misses"), "ratio");
    ("dir.sim_ns_per_op", per "dir.ns", "ns");
    ("gate.calls_per_op", per "gate.calls", "calls/op");
    ("vp.dispatches_per_op", per "vp.dispatches", "count/op");
    ("sched.ready_wait_mean_ms",
     ratio (v "sched.ready_wait.ns") (v "sched.ready_wait.count") /. 1e6, "ms");
    ("as.login_sim_ns", ratio (v "as.login.ns") (v "as.login.count"), "ns") ]

(* The bases the ratios above were taken over, for the record. *)
let bases d =
  let v = get d in
  [ ("pfm.prefetch_useful",
     Printf.sprintf "%d hits of %d issued" (v "io.prefetch_hits") (v "io.prefetch_issued"));
    ("pfm.page_read_mean_ms",
     Printf.sprintf "%d ns over %d reads" (v "pfm.page_read.ns") (v "pfm.page_read.count"));
    ("ns.path_hit_ratio",
     Printf.sprintf "%d hits of %d lookups" (v "ns.path_hits")
       (v "ns.path_hits" + v "ns.path_misses"));
    ("tlb.hit_ratio",
     Printf.sprintf "%d hits of %d lookups" (v "tlb.hits") (v "tlb.hits" + v "tlb.misses")) ]
