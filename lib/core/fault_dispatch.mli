(** Fault routing — Figure 4's wiring of hardware exceptions to object
    managers.

    Missing pages go to the page frame manager; quota faults to the
    known segment manager (which drives the downward chain); locked
    descriptors join the transit wait; missing segments go to the
    address space manager.  Every fault exit delivers pending upward
    signals through the gate layer before the faulting reference is
    retried: those quota handling left behind, and those I/O
    completions raised since the last gate or fault exit.  With none
    pending the delivery is one check. *)

type outcome =
  | Retry  (** the condition is resolved; re-execute the reference *)
  | Wait of Multics_sync.Eventcount.t * int
  | Error of string  (** reflected to the process as an error *)

type t

val create :
  meter:Meter.t -> page_frame:Page_frame.t ->
  known:Known_segment.t -> address_space:Address_space.t -> gate:Gate.t ->
  obs:Multics_obs.Sink.t -> t

(** Every handled fault opens a ["fault"] span named after the fault
    kind and feeds the ["fault.handle"] histogram, so a fault's whole
    service — transit joins, elevator submissions — nests under it in
    the exported timeline. *)

val handle : t -> proc:int -> Multics_hw.Fault.t -> outcome
