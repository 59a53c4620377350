(* Tests for eventcounts, sequencers and message queues. *)

module Sync = Multics_sync

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

let test_eventcount_basic () =
  let ec = Sync.Eventcount.create ~name:"t" () in
  check Alcotest.int "initial" 0 (Sync.Eventcount.read ec);
  Sync.Eventcount.advance ec;
  Sync.Eventcount.advance ec;
  check Alcotest.int "after two" 2 (Sync.Eventcount.read ec)

let test_eventcount_await_ready () =
  let ec = Sync.Eventcount.create () in
  Sync.Eventcount.advance ec;
  check Alcotest.bool "already reached" true
    (Sync.Eventcount.await ec ~value:1 ~notify:(fun () -> Alcotest.fail "no cb"))

let test_eventcount_await_fires () =
  let ec = Sync.Eventcount.create () in
  let fired = ref [] in
  let wait tag v =
    ignore (Sync.Eventcount.await ec ~value:v ~notify:(fun () ->
        fired := tag :: !fired))
  in
  wait "a" 1;
  wait "b" 2;
  wait "c" 1;
  check Alcotest.int "waiters" 3 (Sync.Eventcount.waiters ec);
  Sync.Eventcount.advance ec;
  check (Alcotest.list Alcotest.string) "threshold 1, in order" [ "a"; "c" ]
    (List.rev !fired);
  Sync.Eventcount.advance ec;
  check (Alcotest.list Alcotest.string) "then b" [ "a"; "c"; "b" ]
    (List.rev !fired);
  check Alcotest.int "no waiters left" 0 (Sync.Eventcount.waiters ec)

(* The broadcast property: the advancer does not name the waiters; all
   waiters at or below the new value wake on one advance. *)
let prop_eventcount_broadcast =
  QCheck.Test.make ~name:"eventcount wakes exactly ripe waiters" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 20) (int_range 1 10)) (int_range 0 10))
    (fun (thresholds, advances) ->
      let ec = Sync.Eventcount.create () in
      let woken = ref 0 in
      List.iter
        (fun v ->
          ignore (Sync.Eventcount.await ec ~value:v ~notify:(fun () -> incr woken)))
        thresholds;
      for _ = 1 to advances do Sync.Eventcount.advance ec done;
      let expected = List.length (List.filter (fun v -> v <= advances) thresholds) in
      !woken = expected
      && Sync.Eventcount.waiters ec = List.length thresholds - expected)

let test_sequencer () =
  let s = Sync.Sequencer.create () in
  check Alcotest.int "first" 1 (Sync.Sequencer.ticket s);
  check Alcotest.int "second" 2 (Sync.Sequencer.ticket s);
  check Alcotest.int "issued" 2 (Sync.Sequencer.issued s)

(* Ticket + eventcount mutual exclusion: tickets admit strictly in order. *)
let test_sequencer_eventcount_mutex () =
  let s = Sync.Sequencer.create () in
  let ec = Sync.Eventcount.create () in
  let order = ref [] in
  let enter tag =
    let ticket = Sync.Sequencer.ticket s in
    let run () = order := tag :: !order; Sync.Eventcount.advance ec in
    if Sync.Eventcount.await ec ~value:(ticket - 1) ~notify:run then run ()
  in
  (* First customer's ticket is 1; awaits value 0 which is ready. *)
  enter "p1";
  enter "p2";
  enter "p3";
  check (Alcotest.list Alcotest.string) "fifo" [ "p1"; "p2"; "p3" ]
    (List.rev !order)

let test_msg_queue_fifo () =
  let q = Sync.Msg_queue.create ~capacity:2 () in
  check Alcotest.bool "send 1" true (Result.is_ok (Sync.Msg_queue.send q 1));
  check Alcotest.bool "send 2" true (Result.is_ok (Sync.Msg_queue.send q 2));
  check Alcotest.bool "full" true (Result.is_error (Sync.Msg_queue.send q 3));
  check Alcotest.int "drops" 1 (Sync.Msg_queue.drops q);
  check (Alcotest.option Alcotest.int) "recv 1" (Some 1) (Sync.Msg_queue.receive q);
  check (Alcotest.option Alcotest.int) "recv 2" (Some 2) (Sync.Msg_queue.receive q);
  check (Alcotest.option Alcotest.int) "empty" None (Sync.Msg_queue.receive q)

let test_msg_queue_eventcount () =
  let q = Sync.Msg_queue.create ~capacity:4 () in
  let woken = ref false in
  let consumed = Sync.Msg_queue.consumed q in
  ignore
    (Sync.Eventcount.await (Sync.Msg_queue.items q) ~value:(consumed + 1)
       ~notify:(fun () -> woken := true));
  check Alcotest.bool "not yet" false !woken;
  ignore (Sync.Msg_queue.send q "wakeup");
  check Alcotest.bool "woken by send" true !woken

let prop_msg_queue_conservation =
  QCheck.Test.make ~name:"msg queue conserves messages" ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some op = send that value; None = receive. *)
      let q = Sync.Msg_queue.create ~capacity:8 () in
      let sent = ref [] and received = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some v -> (
              match Sync.Msg_queue.send q v with
              | Ok () -> sent := v :: !sent
              | Error `Full -> ())
          | None -> (
              match Sync.Msg_queue.receive q with
              | Some v -> received := v :: !received
              | None -> ()))
        ops;
      let rec drain () =
        match Sync.Msg_queue.receive q with
        | Some v -> received := v :: !received; drain ()
        | None -> ()
      in
      drain ();
      List.rev !sent = List.rev !received)

let tests =
  [ Alcotest.test_case "eventcount basic" `Quick test_eventcount_basic;
    Alcotest.test_case "eventcount await ready" `Quick test_eventcount_await_ready;
    Alcotest.test_case "eventcount await fires" `Quick test_eventcount_await_fires;
    qcheck prop_eventcount_broadcast;
    Alcotest.test_case "sequencer" `Quick test_sequencer;
    Alcotest.test_case "sequencer+eventcount mutex" `Quick
      test_sequencer_eventcount_mutex;
    Alcotest.test_case "msg queue fifo" `Quick test_msg_queue_fifo;
    Alcotest.test_case "msg queue eventcount" `Quick test_msg_queue_eventcount;
    qcheck prop_msg_queue_conservation ]
