type gate_info = { g_max_ring : int; mutable g_calls : int }

type t = {
  acct : Meter.account;
  signals : Upward_signal.t;
  directory : Directory.t;
  obs : Multics_obs.Sink.t;
  gates : (string, gate_info) Hashtbl.t;
  mutable total : int;
  mutable violations : int;
}

let name = Registry.gate

let create ~meter ~signals ~directory ~obs =
  { acct = Meter.account meter name; signals; directory; obs;
    gates = Hashtbl.create 64; total = 0; violations = 0 }

let define t ~name:gate_name ~max_ring =
  if Hashtbl.mem t.gates gate_name then
    invalid_arg (Printf.sprintf "Gate.define: %s already defined" gate_name);
  Hashtbl.replace t.gates gate_name { g_max_ring = max_ring; g_calls = 0 }

(* Runs at every gate and fault exit; with nothing pending it is one
   check. *)
let deliver_signals t =
  if Upward_signal.pending t.signals = 0 then 0
  else
    Upward_signal.drain t.signals ~deliver:(function
      | Upward_signal.Segment_moved { uid; new_pack; new_index } ->
          Directory.handle_segment_moved t.directory ~uid ~new_pack ~new_index
      | Upward_signal.Pack_offline { pack } ->
          Directory.note_pack_offline t.directory ~pack)

let call t ?deadline ~name:gate_name ~caller_ring f =
  match Hashtbl.find_opt t.gates gate_name with
  | None -> Error `No_gate
  | Some info ->
      if caller_ring > info.g_max_ring then begin
        t.violations <- t.violations + 1;
        Error `Ring_violation
      end
      else if
        (* Deadline checkpoint at the ring boundary: a request whose
           deadline already passed is refused before any kernel work
           is charged — the cheapest place to shed it. *)
        Multics_obs.Sink.ctx_expired t.obs
          ~now:(Multics_obs.Sink.now t.obs)
          (Multics_obs.Sink.current t.obs)
      then begin
        Multics_obs.Sink.count t.obs "gate.timeout";
        Error `Timed_out
      end
      else begin
        info.g_calls <- info.g_calls + 1;
        t.total <- t.total + 1;
        Meter.charge t.acct Cost.Pl1 Cost.gate_crossing;
        (* Every gate entry opens a request context under whatever was
           ambient (the calling process), so kernel work done on the
           caller's behalf — including async I/O it spawns — chains
           back to this call. *)
        let parent = Multics_obs.Sink.current t.obs in
        let ctx = Multics_obs.Sink.new_ctx t.obs ?deadline ~origin:gate_name () in
        Multics_obs.Sink.set_current t.obs ctx;
        let sp =
          Multics_obs.Sink.span_begin t.obs ~cat:"gate" ~name:gate_name ()
        in
        let result = f () in
        ignore (deliver_signals t);
        Multics_obs.Sink.span_end t.obs ~histo:"gate.call" sp;
        Multics_obs.Sink.set_current t.obs parent;
        Ok result
      end

let registered t = Hashtbl.length t.gates

let user_callable t =
  Hashtbl.fold
    (fun _ info acc -> if info.g_max_ring >= 4 then acc + 1 else acc)
    t.gates 0

let calls_total t = t.total

let calls_of t gate_name =
  match Hashtbl.find_opt t.gates gate_name with
  | Some info -> info.g_calls
  | None -> 0

let ring_violations t = t.violations
