(** Multiplexed network connection (Ciccarelli, 1977).

    Two multiplexed streams attach to the system: the ARPANET and the
    local front-end processor with its terminals.  Incoming traffic is
    demultiplexed to per-channel mailboxes that processes await.

    [Per_network_in_kernel]: each network's whole protocol engine lives
    in ring 0 (about 3,500 lines each; the kernel grows linearly with
    attached networks).

    [Generic_demux]: a network-independent demultiplexer of under 1,000
    lines stays in the kernel; protocol processing happens in user-
    domain modules that receive the raw submessages.  Per-message cost
    gains a ring crossing; kernel bulk stops growing with networks. *)

type net = Arpanet | Front_end

type variant = Per_network_in_kernel | Generic_demux

type t

val create : kernel:Multics_kernel.Kernel.t -> variant:variant -> t

val set_choice : t -> Multics_choice.Choice.t -> unit
(** Hand delivery ordering to a choice state.  While the choice is
    {e active} (recording or scripted), messages ready at the same
    instant are delivered in the order the ["net.deliver"] domain
    picks — the same domain the cluster's {!Multics_cluster.Link}
    consults, so one scripted schedule can reorder both.  An inert or
    absent choice leaves the original direct delivery path,
    bit-identical to the service without one. *)

val attach_channel : t -> net:net -> channel:string -> unit
(** Declare a subchannel (a socket or a terminal line).  Delivered
    messages advance the channel's eventcount, which workloads can
    await through {!Multics_kernel.Kernel.user_process}'s named
    eventcounts (the channel name).  Raises [Invalid_argument] on a
    duplicate attach — a subchannel is one mailbox, and rebinding it
    would strand the first awaiter. *)

val inject :
  t -> net:net -> channel:string -> bytes:int -> delay_ns:int -> unit
(** Schedule an incoming message: after [delay_ns] the interrupt fires,
    the (kernel) demultiplexer runs, protocol processing happens in the
    placement-appropriate domain, and the channel eventcount advances. *)

val delivered : t -> int

val delivery_order : t -> string list
(** Channel of every delivered message, oldest first — what the
    scripted ["net.deliver"] tests assert against. *)

val kernel_protocol_ns : t -> int
(** Simulated time spent on protocol work inside ring 0. *)

val user_protocol_ns : t -> int

val kernel_lines : t -> networks:int -> int
(** Census model: ring-zero lines as a function of attached networks —
    linear growth for the old arrangement, nearly flat for the new. *)
