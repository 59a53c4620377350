module K = Multics_kernel
module Hw = Multics_hw
module Choice = Multics_choice.Choice

type net = Arpanet | Front_end

type variant = Per_network_in_kernel | Generic_demux

type t = {
  kernel : K.Kernel.t;
  variant : variant;
  channels : (string, net) Hashtbl.t;
  mutable delivered : int;
  mutable kernel_ns : int;
  mutable user_ns : int;
  mutable choice : Choice.t option;
  mutable seq : int;
  (* In-flight messages when a choice drives delivery order:
     (arrival, seq, net, channel, bytes), sorted by (arrival, seq) —
     the canonical order the ["net.deliver"] point permutes. *)
  mutable pending : (int * int * net * string * int) list;
  mutable log : string list;  (* delivered channels, newest first *)
}

let create ~kernel ~variant =
  { kernel; variant; channels = Hashtbl.create 16; delivered = 0;
    kernel_ns = 0; user_ns = 0; choice = None; seq = 0; pending = [];
    log = [] }

let set_choice t c = t.choice <- Some c

let attach_channel t ~net ~channel =
  (* A subchannel is a single mailbox: attaching it twice would tear
     the eventcount away from its first awaiter. *)
  if Hashtbl.mem t.channels channel then
    invalid_arg ("Network.attach_channel: duplicate channel " ^ channel);
  Hashtbl.replace t.channels channel net

(* Protocol work per message scales with size; the ARPANET's NCP does
   more per message than the front-end's simple terminal framing. *)
let protocol_steps net bytes =
  match net with
  | Arpanet -> 2 + (bytes / 256)
  | Front_end -> 1 + (bytes / 512)

let deliver t ~net ~channel ~bytes =
  let meter = K.Kernel.meter t.kernel in
  let steps = protocol_steps net bytes in
  (* The interrupt and demultiplexing are kernel work in either
     arrangement. *)
  let demux = K.Cost.scale K.Cost.Pl1 K.Cost.net_demux_packet in
  K.Meter.charge (K.Meter.account meter "network_demux") K.Cost.Pl1
    K.Cost.net_demux_packet;
  t.kernel_ns <- t.kernel_ns + demux;
  let proto = steps * K.Cost.net_protocol_step in
  (match t.variant with
  | Per_network_in_kernel ->
      K.Meter.charge (K.Meter.account meter "network_protocols_ring0")
        K.Cost.Pl1 proto;
      t.kernel_ns <- t.kernel_ns + K.Cost.scale K.Cost.Pl1 proto
  | Generic_demux ->
      (* Hand the submessage out of the kernel, process it there. *)
      K.Meter.charge (K.Meter.account meter "network_protocols_user")
        K.Cost.Pl1 (K.Cost.ring_crossing + proto);
      t.user_ns <- t.user_ns + K.Cost.scale K.Cost.Pl1 proto);
  t.delivered <- t.delivered + 1;
  t.log <- channel :: t.log;
  (* Wake whoever awaits the channel. *)
  let ec =
    K.User_process.user_eventcount (K.Kernel.user_process t.kernel) channel
  in
  Multics_sync.Eventcount.advance ec

(* Drain every pending message that has arrived by [now].  When the
   ["net.deliver"] choice point is active it picks the delivery order
   among the ready set — the same domain the cluster fabric consults,
   so the schedule explorer can reorder single-machine network traffic
   and cross-shard envelopes with one mechanism. *)
let drain t ~now =
  let ready, later =
    List.partition (fun (arrival, _, _, _, _) -> arrival <= now) t.pending
  in
  t.pending <- later;
  let rec deliver_all = function
    | [] -> ()
    | remaining ->
        let i =
          match t.choice with
          | Some c when Choice.is_active c && List.length remaining > 1 ->
              let ids =
                Array.of_list (List.map (fun (_, s, _, _, _) -> s) remaining)
              in
              Choice.pick c ~domain:"net.deliver" ~ids
          | _ -> 0
        in
        let _, _, net, channel, bytes = List.nth remaining i in
        deliver t ~net ~channel ~bytes;
        deliver_all (List.filteri (fun j _ -> j <> i) remaining)
  in
  deliver_all ready

let inject t ~net ~channel ~bytes ~delay_ns =
  (match Hashtbl.find_opt t.channels channel with
  | Some declared when declared = net -> ()
  | Some _ -> invalid_arg "Network.inject: channel attached to another net"
  | None -> invalid_arg "Network.inject: unknown channel");
  let m = K.Kernel.machine t.kernel in
  match t.choice with
  | Some c when Choice.is_active c ->
      let arrival = Hw.Machine.now m + delay_ns in
      let seq = t.seq in
      t.seq <- seq + 1;
      (* Keep the canonical (arrival, seq) order so the inert schedule
         is independent of insertion order. *)
      let entry = (arrival, seq, net, channel, bytes) in
      let rec insert = function
        | [] -> [ entry ]
        | ((a, s, _, _, _) as hd) :: tl ->
            if (arrival, seq) < (a, s) then entry :: hd :: tl
            else hd :: insert tl
      in
      t.pending <- insert t.pending;
      Hw.Machine.schedule m ~delay:delay_ns (fun () ->
          drain t ~now:(Hw.Machine.now m))
  | _ ->
      (* No active choice: the original direct path, bit-identical to
         the pre-choice service. *)
      Hw.Machine.schedule m ~delay:delay_ns (fun () ->
          deliver t ~net ~channel ~bytes)

let delivered t = t.delivered
let delivery_order t = List.rev t.log
let kernel_protocol_ns t = t.kernel_ns
let user_protocol_ns t = t.user_ns

let kernel_lines t ~networks =
  match t.variant with
  | Per_network_in_kernel -> networks * 3_500
  | Generic_demux -> 900 + (networks * 40)
