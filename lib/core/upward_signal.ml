type payload =
  | Segment_moved of { uid : Ids.uid; new_pack : int; new_index : int }
  | Pack_offline of { pack : int }

type t = {
  meter : Meter.t;
  mutable queue : payload list;  (* newest first *)
  mutable raised : int;
  mutable obs : Multics_obs.Sink.t;
}

let create ~meter =
  { meter; queue = []; raised = 0; obs = Multics_obs.Sink.detached () }

let set_obs t sink = t.obs <- sink

let raise_signal t ~from payload =
  Meter.charge t.meter ~manager:from Cost.Pl1 Cost.upward_signal;
  Multics_obs.Sink.count t.obs "signal.raise";
  Multics_obs.Sink.instant t.obs ~cat:"signal" ~name:from ();
  t.queue <- payload :: t.queue;
  t.raised <- t.raised + 1

let drain t ~deliver =
  let rec loop delivered =
    match t.queue with
    | [] -> delivered
    | pending ->
        t.queue <- [];
        List.iter deliver (List.rev pending);
        loop (delivered + List.length pending)
  in
  loop 0

let pending t = List.length t.queue
let total_raised t = t.raised
