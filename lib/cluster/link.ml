module Choice = Multics_choice.Choice

type req =
  | R_create of { key : string; words : int }
  | R_settle of { pid : int }

type resp = Ok_pages of int | Timed_out

type payload =
  | Req of req
  | Resp of { rq_send_ns : int; rq_req : req; r_resp : resp }

type envelope = {
  e_src : int;
  e_dst : int;
  e_seq : int;
  e_send_ns : int;
  e_user : string;
  e_session : int;
  e_deadline_ns : int;
  e_payload : payload;
}

type t = {
  l_latency : int;
  l_choice : Choice.t option;
  (* In-flight, kept sorted by (arrival, src, seq): the canonical
     delivery order, and the stable identity order offered to the
     choice point. *)
  mutable l_flight : (int * envelope) list;
  mutable l_messages : int;
  mutable l_log : int list;  (* delivered seqs, newest first *)
}

let create ~latency_ns ?choice () =
  if latency_ns <= 0 then invalid_arg "Link.create: latency must be positive";
  { l_latency = latency_ns; l_choice = choice; l_flight = [];
    l_messages = 0; l_log = [] }

let order_key (arrival, e) = (arrival, e.e_src, e.e_seq)

let post t e =
  let entry = (e.e_send_ns + t.l_latency, e) in
  let rec insert = function
    | [] -> [ entry ]
    | hd :: tl as l ->
        if order_key entry < order_key hd then entry :: l
        else hd :: insert tl
  in
  t.l_flight <- insert t.l_flight

let in_flight t = List.length t.l_flight

let next_arrival t =
  match t.l_flight with [] -> None | (a, _) :: _ -> Some a

let note_delivered t e =
  t.l_messages <- t.l_messages + 1;
  t.l_log <- e.e_seq :: t.l_log

let deliver_ready t ~now =
  let ready, later = List.partition (fun (a, _) -> a <= now) t.l_flight in
  t.l_flight <- later;
  let ready = List.map snd ready in
  let ordered =
    match t.l_choice with
    | Some c when Choice.is_active c ->
        (* Pick the next delivery among everything ready, one decision
           per message — the schedule explorer's handle on reordering.
           Identities are the (globally unique) sequence numbers. *)
        let rec pick_all = function
          | [] -> []
          | remaining ->
              let ids = Array.of_list (List.map (fun e -> e.e_seq) remaining) in
              let i = Choice.pick c ~domain:"net.deliver" ~ids in
              let chosen = List.nth remaining i in
              chosen :: pick_all (List.filteri (fun j _ -> j <> i) remaining)
        in
        pick_all ready
    | _ -> ready
  in
  List.iter (note_delivered t) ordered;
  ordered

let messages t = t.l_messages

let delivery_log t = List.rev t.l_log
