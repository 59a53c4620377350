module Hw = Multics_hw
module Sync = Multics_sync
module Choice = Multics_choice.Choice

type run_result =
  | Continue of int
  | Wait of Sync.Eventcount.t * int * int
  | Stopped of int

type vp = {
  vp_id : int;
  mutable vp_state : [ `Idle | `Ready | `Running | `Waiting ];
  mutable bound_to : string option;
  mutable steps : int;
  mutable waits : int;
  mutable vp_ctx : int;  (* root request context while bound; 0 = none *)
}

type cpu_slot = {
  cpu_id : int;
  mutable busy : bool;
  mutable last_vp : int;  (* -1 when none *)
}

type t = {
  machine : Hw.Machine.t;
  meter : Meter.t;
  obs : Multics_obs.Sink.t;
  vps : vp array;
  step_fns : (vp -> run_result) option array;
  cpus : cpu_slot array;
  state_region : Core_segment.region;
  core : Core_segment.t;
  vp_choice : Choice.t;
  mutable rr_next : int;  (* round-robin scan start *)
  mutable dispatches : int;
  mutable context_switches : int;
  mutable ww_saves : int;
}

let create ?(choice = Choice.default) ~machine ~meter ~core ~n_vps () =
  assert (n_vps > 0);
  (* One state word per VP, kept in a core segment: the whole point of
     the fixed-number design is that these states are always in primary
     memory. *)
  let state_region = Core_segment.alloc core ~name:"vp_states" ~words:n_vps in
  { machine; meter; obs = Hw.Machine.obs machine;
    vps =
      Array.init n_vps (fun vp_id ->
          { vp_id; vp_state = `Idle; bound_to = None; steps = 0; waits = 0;
            vp_ctx = 0 });
    step_fns = Array.make n_vps None;
    cpus =
      Array.init (Array.length machine.Hw.Machine.cpus) (fun cpu_id ->
          { cpu_id; busy = false; last_vp = -1 });
    state_region; core; vp_choice = choice; rr_next = 0; dispatches = 0;
    context_switches = 0; ww_saves = 0 }

let n_vps t = Array.length t.vps

let vp t i =
  if i < 0 || i >= Array.length t.vps then invalid_arg "Vp.vp: bad index";
  t.vps.(i)

let encode_state = function
  | `Idle -> 0
  | `Ready -> 1
  | `Running -> 2
  | `Waiting -> 3

(* The wired state word is the manager's ground truth (the whole point
   of keeping VP states in a core segment); the invariant oracle asserts
   the in-record state never drifts from it. *)
let state_word_agrees t i =
  let v =
    if i < 0 || i >= Array.length t.vps then
      invalid_arg "Vp.state_word_agrees: bad index"
    else t.vps.(i)
  in
  Core_segment.read t.core t.state_region i = encode_state v.vp_state

let set_state t v s =
  v.vp_state <- s;
  Core_segment.write t.core t.state_region v.vp_id (encode_state s)

let bind ?deadline t ~vp_id ~name:bound ~step =
  let v = vp t vp_id in
  if v.vp_state <> `Idle then
    invalid_arg (Printf.sprintf "Vp.bind: vp %d not idle" vp_id);
  v.bound_to <- Some bound;
  v.vp_ctx <- Multics_obs.Sink.new_ctx t.obs ~parent:0 ?deadline ~origin:bound ();
  t.step_fns.(vp_id) <- Some step;
  set_state t v `Ready

let find_idle t =
  let rec loop i =
    if i >= Array.length t.vps then None
    else if t.vps.(i).vp_state = `Idle then Some i
    else loop (i + 1)
  in
  loop 0

(* Prefer the VP this CPU ran last (it is still loaded); otherwise
   rotate.  Without the affinity preference every dispatch step would
   pay a context switch even when only one VP is runnable. *)
let pick_ready t ~last =
  if Choice.is_active t.vp_choice then begin
    (* Active strategy: any ready VP may win the dispatch, ignoring the
       affinity preference — the explorer's model of CPUs racing for
       work. *)
    let ready =
      Array.to_list t.vps |> List.filter (fun v -> v.vp_state = `Ready)
    in
    match ready with
    | [] -> None
    | _ ->
        let ids = Array.of_list (List.map (fun v -> v.vp_id) ready) in
        let i = Choice.pick t.vp_choice ~domain:"vp.dispatch" ~ids in
        Some (List.nth ready i)
  end
  else if last >= 0 && last < Array.length t.vps
          && t.vps.(last).vp_state = `Ready
  then Some t.vps.(last)
  else begin
    let n = Array.length t.vps in
    let rec loop k =
      if k >= n then None
      else
        let i = (t.rr_next + k) mod n in
        if t.vps.(i).vp_state = `Ready then begin
          t.rr_next <- (i + 1) mod n;
          Some t.vps.(i)
        end
        else loop (k + 1)
    in
    loop 0
  end

let rec kick t =
  Array.iter
    (fun cpu ->
      if (not cpu.busy) && Array.exists (fun v -> v.vp_state = `Ready) t.vps
      then begin
        cpu.busy <- true;
        Hw.Machine.schedule t.machine ~delay:0 (fun () -> run_cpu t cpu)
      end)
    t.cpus

and run_cpu t cpu =
  match pick_ready t ~last:cpu.last_vp with
  | None -> cpu.busy <- false
  | Some v ->
      set_state t v `Running;
      t.dispatches <- t.dispatches + 1;
      let switch_cost =
        if cpu.last_vp = v.vp_id then 0
        else begin
          t.context_switches <- t.context_switches + 1;
          Cost.scale Cost.Pl1 Cost.context_switch_vp
        end
      in
      cpu.last_vp <- v.vp_id;
      let step =
        match t.step_fns.(v.vp_id) with
        | Some f -> f
        | None -> fun _ -> Stopped 0
      in
      (* The VP's root context is ambient for the step; the step itself
         may install a finer one (the running process, a gate call, a
         fault).  Whatever is current when the step returns is captured
         and re-installed around the deferred completion, so eventcount
         registrations in [finish] carry the request that blocked. *)
      let ctx0 = Multics_obs.Sink.current t.obs in
      if v.vp_ctx <> 0 then Multics_obs.Sink.set_current t.obs v.vp_ctx;
      (* The span brackets the step's simulated duration: it closes in
         the completion event, so ["vp.step"] sees the step cost the
         dispatcher charges, not the zero width of one event handler. *)
      let sp =
        Multics_obs.Sink.span_begin t.obs ~tid:cpu.cpu_id ~cat:"vp"
          ~name:(match v.bound_to with Some n -> n | None -> "vp") ()
      in
      ignore (Meter.take_pending t.meter);
      let result = step v in
      v.steps <- v.steps + 1;
      let step_ctx = Multics_obs.Sink.current t.obs in
      Multics_obs.Sink.set_current t.obs ctx0;
      let kernel_cost = Meter.take_pending t.meter in
      let base_cost =
        match result with
        | Continue c | Wait (_, _, c) | Stopped c -> c
      in
      let total = max 1 (base_cost + kernel_cost + switch_cost) in
      Hw.Machine.schedule t.machine ~delay:total (fun () ->
          let amb = Multics_obs.Sink.current t.obs in
          Multics_obs.Sink.set_current t.obs step_ctx;
          Multics_obs.Sink.span_end t.obs ~histo:"vp.step" sp;
          finish t v result;
          Multics_obs.Sink.set_current t.obs amb;
          run_cpu t cpu)

and finish t v result =
  match result with
  | Continue _ -> set_state t v `Ready
  | Stopped _ ->
      set_state t v `Idle;
      v.bound_to <- None;
      v.vp_ctx <- 0;
      t.step_fns.(v.vp_id) <- None
  | Wait (ec, value, _) ->
      v.waits <- v.waits + 1;
      set_state t v `Waiting;
      let ready_now =
        Sync.Eventcount.await ec ~value ~notify:(fun () ->
            (* Notification may arrive while other VPs run; ready the VP
               and wake an idle CPU. *)
            if v.vp_state = `Waiting then begin
              set_state t v `Ready;
              kick t
            end)
      in
      if ready_now then begin
        (* The event fired between the wait decision and registration:
           the wakeup-waiting switch prevents the lost notification. *)
        t.ww_saves <- t.ww_saves + 1;
        set_state t v `Ready
      end

let dispatches t = t.dispatches
let context_switches t = t.context_switches
let wakeup_waiting_saves t = t.ww_saves
