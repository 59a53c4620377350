module Choice = Multics_choice.Choice

type policy =
  | Fcfs
  | Round_robin of { quantum : int }
  | Multilevel of { levels : int; base_quantum : int }

type t = {
  pol : policy;
  queues : int Queue.t array;  (* index 0 = highest priority *)
  level_of : (int, int) Hashtbl.t;
  sch_choice : Choice.t;
}

let n_levels = function
  | Fcfs | Round_robin _ -> 1
  | Multilevel { levels; _ } -> max 1 levels

let create ?(choice = Choice.default) pol =
  { pol;
    queues = Array.init (n_levels pol) (fun _ -> Queue.create ());
    level_of = Hashtbl.create 16;
    sch_choice = choice }

let policy t = t.pol

let enqueue t pid =
  Hashtbl.replace t.level_of pid 0;
  Queue.add pid t.queues.(0)

let requeue_preempted t pid =
  let level =
    match t.pol with
    | Fcfs | Round_robin _ -> 0
    | Multilevel { levels; _ } ->
        let current = Option.value ~default:0 (Hashtbl.find_opt t.level_of pid) in
        min (levels - 1) (current + 1)
  in
  Hashtbl.replace t.level_of pid level;
  Queue.add pid t.queues.(level)

let enqueued t =
  Array.to_list t.queues
  |> List.concat_map (fun q -> List.of_seq (Queue.to_seq q))

(* Remove the first occurrence of [pid] from [q], preserving the order
   of everything else. *)
let remove_from_queue q pid =
  let kept = Queue.create () in
  let removed = ref false in
  Queue.iter
    (fun p ->
      if p = pid && not !removed then removed := true else Queue.add p kept)
    q;
  Queue.clear q;
  Queue.transfer kept q

let next t =
  if not (Choice.is_active t.sch_choice) then
    let rec scan i =
      if i >= Array.length t.queues then None
      else
        match Queue.take_opt t.queues.(i) with
        | Some pid -> Some pid
        | None -> scan (i + 1)
    in
    scan 0
  else
    (* Active strategy: every ready process is a candidate, modelling a
       racy dispatcher that may bypass the priority ladder. *)
    match enqueued t with
    | [] -> None
    | pids ->
        let ids = Array.of_list pids in
        let i = Choice.pick t.sch_choice ~domain:"sched.next" ~ids in
        let pid = ids.(i) in
        let rec drop l =
          if l >= Array.length t.queues then ()
          else if Queue.fold (fun acc p -> acc || p = pid) false t.queues.(l)
          then remove_from_queue t.queues.(l) pid
          else drop (l + 1)
        in
        drop 0;
        Some pid

let quantum_for t pid =
  match t.pol with
  | Fcfs -> max_int
  | Round_robin { quantum } -> quantum
  | Multilevel { base_quantum; _ } ->
      let level = Option.value ~default:0 (Hashtbl.find_opt t.level_of pid) in
      base_quantum * (1 lsl level)
