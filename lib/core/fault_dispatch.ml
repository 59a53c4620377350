module Hw = Multics_hw
module Sync = Multics_sync

type outcome = Retry | Wait of Sync.Eventcount.t * int | Error of string

type t = {
  acct : Meter.account;
  page_frame : Page_frame.t;
  known : Known_segment.t;
  address_space : Address_space.t;
  gate : Gate.t;
  obs : Multics_obs.Sink.t;
}

(* Fault reflection enters through the same layer as gates. *)
let name = Registry.gate

let create ~meter ~page_frame ~known ~address_space ~gate ~obs =
  { acct = Meter.account meter name; page_frame; known; address_space; gate;
    obs }

let of_pfm = function
  | Page_frame.Wait (ec, v) -> Wait (ec, v)
  | Page_frame.Retry -> Retry
  | Page_frame.Damaged msg -> Error msg

let handle t ~proc fault =
  Meter.charge t.acct Cost.Pl1 Cost.fault_entry;
  (* A fault is a request entry point: open a context under the faulting
     process so the page read, its retries and any read-ahead spawned on
     its behalf chain back to this fault. *)
  let parent = Multics_obs.Sink.current t.obs in
  let ctx =
    Multics_obs.Sink.new_ctx t.obs ~origin:(Hw.Fault.kind_name fault) ()
  in
  Multics_obs.Sink.set_current t.obs ctx;
  let sp =
    Multics_obs.Sink.span_begin t.obs ~cat:"fault"
      ~name:(Hw.Fault.kind_name fault) ()
  in
  let outcome =
    match fault with
    | Hw.Fault.Missing_page { ptw_abs; _ } ->
        of_pfm
          (Page_frame.service_missing_page t.page_frame ~ptw_abs)
    | Hw.Fault.Locked_descriptor { ptw_abs; _ } ->
        of_pfm
          (Page_frame.service_locked_descriptor t.page_frame ~ptw_abs)
    | Hw.Fault.Quota_fault { segno; pageno } -> (
        match Known_segment.handle_quota_fault t.known ~proc ~segno ~pageno with
        | `Retry -> Retry
        | `Error msg -> Error msg)
    | Hw.Fault.Missing_segment { segno } -> (
        match
          Address_space.handle_missing_segment t.address_space ~proc ~segno
        with
        | `Retry -> Retry
        | `Error msg -> Error msg)
    | Hw.Fault.Access_violation { segno; access; ring } ->
        Error
          (Printf.sprintf "access violation: seg %d %s from ring %d" segno
             (Hw.Fault.access_to_string access)
             ring)
    | Hw.Fault.Bounds_fault { segno; wordno } ->
        Error (Printf.sprintf "bounds fault: seg %d word %o" segno wordno)
  in
  (* Every fault exit is a way out of the kernel: deliver what the
     chain below queued (a quota fault's Segment_moved) and what I/O
     completions raised since the last exit (Pack_offline) before the
     process rereferences anything. *)
  ignore (Gate.deliver_signals t.gate);
  Multics_obs.Sink.span_end t.obs ~histo:"fault.handle" sp;
  (* On [Wait] the fault context stays ambient: the VP dispatcher
     captures it when the step returns, so the eventcount registration
     for the page transit carries this fault's id.  On the synchronous
     outcomes the request is over — restore the caller's context. *)
  (match outcome with
  | Wait _ -> ()
  | Retry | Error _ -> Multics_obs.Sink.set_current t.obs parent);
  outcome
