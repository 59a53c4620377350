(** Processor faults.

    These are the exceptional conditions the paper's restructuring turns
    on: missing segments and pages drive the virtual memory; the quota
    fault and locked-descriptor fault are the two hardware additions
    proposed by the paper; access violations come from descriptor access
    bits and ring brackets. *)

type access = Read | Write | Execute

type t =
  | Missing_segment of { segno : int }
      (** SDW not present: segment not connected to this address space. *)
  | Missing_page of { segno : int; pageno : int; ptw_abs : Addr.abs }
      (** PTW present bit off; [ptw_abs] is the absolute address of the
          page descriptor that faulted, which legacy page control must
          re-derive interpretively and which the new hardware records. *)
  | Quota_fault of { segno : int; pageno : int }
      (** Reference to a never-allocated page of a segment.  Only raised
          when the hardware has the quota-fault bit; otherwise such
          references surface as [Missing_page] and software must
          discover the distinction. *)
  | Locked_descriptor of { segno : int; pageno : int; ptw_abs : Addr.abs }
      (** PTW lock bit set by another processor's fault service.  Only
          raised when the hardware has the descriptor lock bit. *)
  | Access_violation of { segno : int; access : access; ring : int }
  | Bounds_fault of { segno : int; wordno : int }

val access_to_string : access -> string

val kind_name : t -> string
(** Constant (allocation-free) name of the fault's constructor, for
    trace span labels: ["missing_page"], ["quota_fault"], ... *)

val to_string : t -> string
