type t = {
  transients : (int * int, int ref) Hashtbl.t;  (* remaining read failures *)
  bad : (int * int, unit) Hashtbl.t;
  (* pack -> offline windows [off, on), newest first; [max_int] closes
     nothing — the pack never recovers from that window. *)
  offline : (int, (int * int) list) Hashtbl.t;
  mutable crash : (int * int) option;  (* at_ns, surviving writes *)
}

let create () =
  { transients = Hashtbl.create 8; bad = Hashtbl.create 8;
    offline = Hashtbl.create 4; crash = None }

let none = create ()

let fail_reads t ~pack ~record ~times =
  assert (times > 0);
  Hashtbl.replace t.transients (pack, record) (ref times)

let bad_record t ~pack ~record =
  Hashtbl.replace t.bad (pack, record) ()

let windows t ~pack =
  match Hashtbl.find_opt t.offline pack with Some ws -> ws | None -> []

let pack_offline t ~pack ~at_ns =
  assert (at_ns >= 0);
  Hashtbl.replace t.offline pack ((at_ns, max_int) :: windows t ~pack)

let pack_online t ~pack ~at_ns =
  assert (at_ns >= 0);
  match windows t ~pack with
  | (off, on) :: rest when on = max_int ->
      assert (at_ns > off);
      Hashtbl.replace t.offline pack ((off, at_ns) :: rest)
  | _ -> invalid_arg "Fault_inject.pack_online: no open offline window"

let pack_is_offline t ~pack ~now =
  List.exists (fun (off, on) -> now >= off && now < on) (windows t ~pack)

let power_fail t ~at_ns ~surviving_writes =
  assert (at_ns > 0 && surviving_writes >= 0);
  t.crash <- Some (at_ns, surviving_writes)

let read_attempt_fails t ~pack ~record =
  Hashtbl.mem t.bad (pack, record)
  ||
  match Hashtbl.find_opt t.transients (pack, record) with
  | Some n when !n > 0 ->
      decr n;
      true
  | _ -> false

let write_attempt_fails t ~pack ~record = Hashtbl.mem t.bad (pack, record)

let crash_schedule t = t.crash

let random ~seed ~packs ~records_per_pack ~horizon_ns =
  assert (packs > 0 && records_per_pack > 0 && horizon_ns > 1);
  let st = Random.State.make [| 0x5eed; seed |] in
  let t = create () in
  let pick_pack () = Random.State.int st packs in
  let pick_record () = Random.State.int st records_per_pack in
  for _ = 1 to 1 + Random.State.int st 4 do
    fail_reads t ~pack:(pick_pack ()) ~record:(pick_record ())
      ~times:(1 + Random.State.int st 3)
  done;
  for _ = 1 to Random.State.int st 3 do
    bad_record t ~pack:(pick_pack ()) ~record:(pick_record ())
  done;
  if Random.State.bool st then
    power_fail t
      ~at_ns:((horizon_ns / 4) + Random.State.int st (max 1 (horizon_ns / 2)))
      ~surviving_writes:(Random.State.int st 6);
  if Random.State.int st 4 = 0 then
    pack_offline t ~pack:(pick_pack ())
      ~at_ns:(Random.State.int st horizon_ns);
  t
