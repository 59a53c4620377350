type 'a t = {
  capacity : int;
  queue : 'a Queue.t;
  items_ec : Eventcount.t;
  mutable consumed : int;
  mutable drops : int;
}

let create ?(name = "msgq") ?obs ~capacity () =
  assert (capacity > 0);
  { capacity; queue = Queue.create ();
    items_ec = Eventcount.create ~name:(name ^ ".items") ?obs ();
    consumed = 0; drops = 0 }


let send t msg =
  if Queue.length t.queue >= t.capacity then begin
    t.drops <- t.drops + 1;
    Error `Full
  end
  else begin
    Queue.add msg t.queue;
    Eventcount.advance t.items_ec;
    Ok ()
  end

let receive t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some msg ->
      t.consumed <- t.consumed + 1;
      Some msg

let items t = t.items_ec
let consumed t = t.consumed
let drops t = t.drops
