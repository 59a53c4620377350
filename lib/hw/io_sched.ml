module Choice = Multics_choice.Choice

type config = {
  max_batch : int;
  pack_ways : int;
  seek_ns : int;
  transfer_ns : int;
  retry_limit : int;
  retry_budget : int;
  breaker_threshold : int;
  breaker_cooldown_ns : int;
}

(* The overload knobs (budget, breaker) default off. *)
let config_of_disk disk =
  { max_batch = 8;
    pack_ways = 8;
    seek_ns = Disk.seek_latency_ns disk;
    transfer_ns = Disk.transfer_latency_ns disk;
    retry_limit = 4;
    retry_budget = 0;
    breaker_threshold = 0;
    breaker_cooldown_ns = 0 }

type io_error = Dead_record | Pack_offline | Timed_out | Breaker_open

let pp_io_error ppf = function
  | Dead_record -> Format.fprintf ppf "dead-record"
  | Pack_offline -> Format.fprintf ppf "pack-offline"
  | Timed_out -> Format.fprintf ppf "timed-out"
  | Breaker_open -> Format.fprintf ppf "breaker-open"

type op =
  | Read of ((Page_image.t, io_error) result -> unit)
  | Write of Page_image.t * ((unit, io_error) result -> unit) option

type req = {
  seq : int;
  record : int;
  submitted : int;  (* simulated instant of submission, for the deadline *)
  op : op;
  req_ctx : int;  (* request context captured at submit *)
  mutable cancelled : bool;
  mutable attempts : int;  (* consecutive failed attempts *)
}

let is_read r = match r.op with Read _ -> true | Write _ -> false

(* One independent actuator of a pack.  Several ways share the pack's
   queue but keep their own head positions, so a sequential stream can
   keep one arm at its track while the others absorb unrelated work. *)
type way = {
  wid : int;
  mutable head : int;  (* record after the last one this arm served *)
  mutable w_busy : bool;
}

(* Per-pack circuit breaker: [Br_open]'s payload is the absolute
   instant the cooldown elapses and a half-open probe may go out. *)
type breaker = Br_closed | Br_open of int | Br_half

type pack_state = {
  id : int;
  mutable breaker : breaker;
  mutable consec_fails : int;  (* consecutive failed service attempts *)
  mutable closes : int;  (* half-open -> closed transitions: recoveries *)
  mutable queue : req list;  (* undispatched; order irrelevant, seq decides *)
  mutable depth : int;  (* List.length queue, maintained incrementally *)
  ways : way array;
  (* in-flight sweeps: batch, cost, live, span id, way *)
  mutable inflight : (req list * int * bool ref * int * way) list;
  mutable retrying : req list;  (* failed once, waiting out a backoff *)
  mutable kick_planted : bool;  (* one dispatch event per instant *)
  (* record -> number of in-flight requests touching it.  A record with
     in-flight work is barred from new sweeps, so same-record requests
     execute in submission order even across concurrent ways. *)
  busy_records : (int, int) Hashtbl.t;
}

type stats = {
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_batches : int;
  mutable s_merges : int;
  mutable s_max_batch : int;
  mutable s_queue_peak : int;
  mutable s_busy_ns : int;
  mutable s_cancelled : int;
  mutable s_retries : int;
  mutable s_gave_up : int;
  mutable s_deadline_batches : int;
  mutable s_buffer_hits : int;
  mutable s_timeouts : int;
  mutable s_fast_fails : int;
  mutable s_budget_denied : int;
  mutable s_breaker_opens : int;
  mutable s_breaker_probes : int;
  mutable s_breaker_closes : int;
}

type t = {
  disk : Disk.t;
  config : config;
  schedule : delay:int -> (unit -> unit) -> unit;
  faults : Fault_inject.t;
  choice : Choice.t;
  now : unit -> int;
  packs : pack_state array;
  (* (pack, record) -> unapplied write images, newest first, so any
     read — queued or immediate — observes write-behind data.  A list,
     not a single slot: read priority and concurrent ways may service
     a read between two same-record writes, and it must see the newest
     image older than itself, which a latest-only table would have
     already dropped. *)
  pending_writes : (int * int, (int * Page_image.t) list) Hashtbl.t;
  (* (pack, record) -> highest write seq applied to the platter.  A
     backoff-delayed retry can land after a newer same-record write;
     the stale image must be skipped, not applied. *)
  applied_seq : (int * int, int) Hashtbl.t;
  mutable seq : int;
  st : stats;
  (* root context -> remaining retries; populated lazily, only when
     [retry_budget > 0] and the request carries a context. *)
  budget_left : (int, int) Hashtbl.t;
  (* set the first time a submitted request carries a context deadline;
     the dispatch-time cancellation sweep is guarded by it so the
     deadline-free hot path pays nothing. *)
  mutable has_deadlines : bool;
  mutable on_apply :
    pack:int -> record:int -> acked:bool -> Page_image.t -> unit;
  obs : Multics_obs.Sink.t;
  mutable batch_seq : int;  (* async-span pairing ids for the exporter *)
}

let create ?config ?(faults = Fault_inject.none)
    ?(choice = Choice.default) ?(now = fun () -> 0)
    ?(obs = Multics_obs.Sink.detached ()) ~disk ~schedule () =
  let config =
    match config with Some c -> c | None -> config_of_disk disk
  in
  assert (config.max_batch > 0 && config.seek_ns >= 0 && config.transfer_ns > 0);
  assert (config.retry_limit > 0);
  assert (config.pack_ways >= 1);
  assert (config.retry_budget >= 0);
  assert (config.breaker_threshold = 0 || config.breaker_cooldown_ns > 0);
  { disk; config; schedule; faults; choice; now;
    packs =
      Array.init (Disk.n_packs disk) (fun id ->
          { id; breaker = Br_closed; consec_fails = 0; closes = 0; queue = [];
            depth = 0;
            ways =
              Array.init config.pack_ways (fun wid ->
                  { wid; head = 0; w_busy = false });
            inflight = []; retrying = [];
            kick_planted = false; busy_records = Hashtbl.create 16 });
    pending_writes = Hashtbl.create 64;
    applied_seq = Hashtbl.create 64;
    seq = 0;
    st =
      { s_reads = 0; s_writes = 0; s_batches = 0; s_merges = 0;
        s_max_batch = 0; s_queue_peak = 0; s_busy_ns = 0; s_cancelled = 0;
        s_retries = 0; s_gave_up = 0; s_deadline_batches = 0;
        s_buffer_hits = 0; s_timeouts = 0; s_fast_fails = 0;
        s_budget_denied = 0; s_breaker_opens = 0; s_breaker_probes = 0;
        s_breaker_closes = 0 };
    budget_left = Hashtbl.create 16; has_deadlines = false;
    on_apply = (fun ~pack:_ ~record:_ ~acked:_ _ -> ());
    obs; batch_seq = 0 }

let set_on_apply t f = t.on_apply <- f
let single_transfer_ns t = t.config.seek_ns + t.config.transfer_ns

(* The deadline follows the Linux deadline scheduler's proportions:
   write expiry there is ~400 flat I/O times; 256 is still aggressive. *)
let deadline_ns t = 256 * single_transfer_ns t

let pack_state t pack =
  assert (pack >= 0 && pack < Array.length t.packs);
  t.packs.(pack)

let pack_is_offline t pack =
  Fault_inject.pack_is_offline t.faults ~pack ~now:(t.now ())

(* ------------------------------------------------------------------ *)
(* Per-pack circuit breaker.  Disabled ([breaker_threshold = 0]) none
   of this is ever consulted; enabled, the pack trips open on
   [breaker_threshold] consecutive failed service attempts or on any
   [Pack_offline], fails new work fast while open, sends the queued
   work back out as a half-open probe once [breaker_cooldown_ns] has
   elapsed, and closes on the first probe success.  Each close counts
   as one recovery of the pack ([recoveries]), which the owner reads to
   tell one offline window from the next. *)

let breaker_on t = t.config.breaker_threshold > 0

(* Forward reference: the cooldown event must restart dispatch, which
   is defined below. *)
let dispatch_ref : (t -> pack_state -> unit) ref = ref (fun _ _ -> ())

let breaker_half t p =
  p.breaker <- Br_half;
  t.st.s_breaker_probes <- t.st.s_breaker_probes + 1;
  Multics_obs.Sink.instant t.obs ~tid:p.id ~cat:"io" ~name:"breaker_half_open"
    ()

let breaker_trip t p =
  let until = t.now () + t.config.breaker_cooldown_ns in
  p.breaker <- Br_open until;
  t.st.s_breaker_opens <- t.st.s_breaker_opens + 1;
  Multics_obs.Sink.instant t.obs ~tid:p.id ~arg:until ~cat:"io"
    ~name:"breaker_open" ();
  t.schedule ~delay:t.config.breaker_cooldown_ns (fun () ->
      (* A re-trip plants a fresh event with a later [until]; the
         payload match makes this stale one a no-op. *)
      match p.breaker with
      | Br_open u when u = until ->
          breaker_half t p;
          !dispatch_ref t p
      | _ -> ())

let breaker_note_success t p =
  if breaker_on t then begin
    p.consec_fails <- 0;
    match p.breaker with
    | Br_half ->
        p.breaker <- Br_closed;
        p.closes <- p.closes + 1;
        t.st.s_breaker_closes <- t.st.s_breaker_closes + 1;
        Multics_obs.Sink.instant t.obs ~tid:p.id ~cat:"io"
          ~name:"breaker_close" ()
    | _ -> ()
  end

let breaker_note_failure t p ~offline =
  if breaker_on t then begin
    p.consec_fails <- p.consec_fails + 1;
    match p.breaker with
    | Br_half -> breaker_trip t p  (* the probe failed: back to open *)
    | Br_closed
      when offline || p.consec_fails >= t.config.breaker_threshold ->
        breaker_trip t p
    | _ -> ()
  end

(* Whether the breaker lets new work at the pack; flips open -> half
   lazily once the cooldown has elapsed, so a submission arriving after
   the cooldown (but before the planted event) becomes the probe. *)
let breaker_admits t p =
  (not (breaker_on t))
  ||
  match p.breaker with
  | Br_closed | Br_half -> true
  | Br_open until ->
      if t.now () >= until then begin
        breaker_half t p;
        true
      end
      else false

let breaker_suppressed t p =
  breaker_on t
  && match p.breaker with Br_open u -> t.now () < u | _ -> false

(* Context deadlines: expired means the requester no longer wants the
   answer.  Context 0 (tracking off) never expires. *)
let ctx_expired t ctx =
  Multics_obs.Sink.ctx_expired t.obs ~now:(t.now ()) ctx

let jitter_ids = [| 0; 1; 2; 3 |]

(* Per-root-context retry budget: every backoff retry consumes one
   token from the requester's root context, so one luckless request
   tree cannot monopolise a struggling pack.  Disabled
   ([retry_budget = 0]) or for a request with no context (ctx 0)
   always allows. *)
let budget_allows t (r : req) =
  t.config.retry_budget = 0 || r.req_ctx = 0
  ||
  let root = Multics_obs.Sink.ctx_root t.obs r.req_ctx in
  let left =
    match Hashtbl.find_opt t.budget_left root with
    | Some n -> n
    | None -> t.config.retry_budget
  in
  if left <= 0 then false
  else begin
    Hashtbl.replace t.budget_left root (left - 1);
    true
  end

(* ------------------------------------------------------------------ *)
(* The elevator: each sweep is one circular pass (C-SCAN) from a way's
   head position.  Requests sort by (record, submission sequence);
   those at or past the head go first, then the sweep wraps.
   Same-record requests keep submission order — within a sweep by the
   sort, across concurrent ways by the busy-record bar — so
   read-your-writes holds within the queue. *)

let by_record_seq a b =
  match compare a.record b.record with 0 -> compare a.seq b.seq | c -> c

let sweep_from ~head sorted =
  let ahead, behind = List.partition (fun r -> r.record >= head) sorted in
  ahead @ behind

let rec split_batch n acc rest =
  match rest with
  | _ when n = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | r :: tl -> split_batch (n - 1) (r :: acc) tl

(* The requests a new sweep may draw from, and those it must leave
   queued.  Deadline first: once any request has aged past
   [deadline_ns] the sweep serves only expired requests — C-SCAN can
   orbit a hot region forever, this is the starvation bound.
   Otherwise, whenever any read is available, the sweep serves reads
   only: a VP is blocked on every read while nobody waits for a write,
   and the pending-write table keeps reordered readers coherent. *)
let select_pool t p =
  let blocked, avail =
    List.partition (fun r -> Hashtbl.mem p.busy_records r.record) p.queue
  in
  if avail = [] then None
  else begin
    let now = t.now () and deadline = deadline_ns t in
    let expired = List.filter (fun r -> now - r.submitted >= deadline) avail in
    match expired with
    | _ :: _ ->
        let fresh = List.filter (fun r -> now - r.submitted < deadline) avail in
        Some (expired, blocked @ fresh, true)
    | [] -> (
        let reads, writes = List.partition is_read avail in
        match reads with
        | [] -> Some (avail, blocked, false)
        | _ -> Some (reads, blocked @ writes, false))
  end

(* One seek per discontinuity, one transfer per record.  Same-record
   and adjacent-record requests chain without repositioning — that is
   the merge the batch dispatch exists to harvest.  Each arm keeps its
   position between sweeps: a batch that picks up where the way's last
   one ended continues without a seek, so a sequential stream pays the
   repositioning once, not once per sweep. *)
let batch_cost t ~head batch =
  let cost = ref 0 and prev = ref (head - 1) in
  List.iter
    (fun r ->
      if r.record - !prev <= 1 && r.record - !prev >= 0
      then t.st.s_merges <- t.st.s_merges + 1
      else cost := !cost + t.config.seek_ns;
      cost := !cost + t.config.transfer_ns;
      prev := r.record)
    batch;
  !cost

(* Circular forward distance from a way's head to the first record its
   sweep would serve; 0 means the sweep continues without a seek. *)
let way_distance t ~head sorted_pool =
  let first_ge =
    List.fold_left
      (fun acc r ->
        if r.record >= head then
          match acc with
          | Some b when b <= r.record -> acc
          | _ -> Some r.record
        else acc)
      None sorted_pool
  in
  match first_ge with
  | Some rec_ -> rec_ - head
  | None ->
      let mn =
        List.fold_left (fun acc r -> min acc r.record) max_int sorted_pool
      in
      Disk.records_per_pack t.disk - head + mn

let drop_pending_write t pack (r : req) =
  match Hashtbl.find_opt t.pending_writes (pack, r.record) with
  | Some imgs -> (
      match List.filter (fun (wseq, _) -> wseq <> r.seq) imgs with
      | [] -> Hashtbl.remove t.pending_writes (pack, r.record)
      | rest -> Hashtbl.replace t.pending_writes (pack, r.record) rest)
  | None -> ()

(* A terminal failure: a write's buffered image will never land, so no
   reader may see it; then the submitter hears the error. *)
let fail t pack (r : req) err =
  match r.op with
  | Read done_ -> done_ (Error err)
  | Write (_, done_) ->
      drop_pending_write t pack r;
      (match done_ with Some f -> f (Error err) | None -> ())

(* Deliver [v] to [done_] from a fresh event at this instant, under the
   submitter's context: the completion still arrives through the
   asynchronous channel, without touching an arm. *)
let deliver_later t done_ v =
  let ctx = Multics_obs.Sink.current t.obs in
  t.schedule ~delay:0 (fun () ->
      let prev = Multics_obs.Sink.current t.obs in
      Multics_obs.Sink.set_current t.obs ctx;
      done_ v;
      Multics_obs.Sink.set_current t.obs prev)

let apply_write t pack (r : req) img ~acked =
  (* Skip a stale retried image a newer same-record write already
     superseded on the platter; the caller is still acknowledged —
     the record holds data at least as new as this image. *)
  let stale =
    match Hashtbl.find_opt t.applied_seq (pack, r.record) with
    | Some s -> s > r.seq
    | None -> false
  in
  if not stale then begin
    Disk.write_record t.disk ~pack ~record:r.record img;
    Hashtbl.replace t.applied_seq (pack, r.record) r.seq;
    t.on_apply ~pack ~record:r.record ~acked img
  end

(* One service attempt of a request; [sync] retries inline (for the
   blocking shims and quiesce), otherwise failed attempts reschedule
   themselves with exponential backoff charged to the simulated clock. *)
let rec execute_req ?(sync = false) t pack (r : req) =
  if not r.cancelled then begin
    (* The completion runs on behalf of whoever submitted: re-install
       the context captured at submit around delivery (and any retry
       bookkeeping), then restore. *)
    let prev_ctx = Multics_obs.Sink.current t.obs in
    Multics_obs.Sink.set_current t.obs r.req_ctx;
    (if (not sync) && not (breaker_admits t (pack_state t pack)) then begin
      (* Fail fast: the pack's breaker is open.  Quiesce ([sync]) is
         exempt — at shutdown the request deserves its real outcome. *)
      t.st.s_fast_fails <- t.st.s_fast_fails + 1;
      fail t pack r Breaker_open
    end
    else if pack_is_offline t pack then begin
      Multics_obs.Sink.count t.obs "io.offline_fail";
      breaker_note_failure t (pack_state t pack) ~offline:true;
      fail t pack r Pack_offline
    end
    else if Disk.record_is_dead t.disk ~pack ~record:r.record then
      fail t pack r Dead_record
    else
      match r.op with
      | Read done_ ->
          if Fault_inject.read_attempt_fails t.faults ~pack ~record:r.record
          then attempt_failed t pack r ~sync
          else
            let buffered =
              match Hashtbl.find_opt t.pending_writes (pack, r.record) with
              | Some imgs ->
                  (* Newest-first, so the first entry older than the
                     read is the image it must observe. *)
                  List.find_opt (fun (wseq, _) -> wseq < r.seq) imgs
              | None -> None
            in
            let img =
              match buffered with
              | Some (_, img) -> img
              | None -> Disk.read_record t.disk ~pack ~record:r.record
            in
            breaker_note_success t (pack_state t pack);
            done_ (Ok img)
      | Write (img, done_) ->
          if Fault_inject.write_attempt_fails t.faults ~pack ~record:r.record
          then attempt_failed t pack r ~sync
          else begin
            apply_write t pack r img ~acked:true;
            drop_pending_write t pack r;
            breaker_note_success t (pack_state t pack);
            (match done_ with Some f -> f (Ok ()) | None -> ())
          end);
    Multics_obs.Sink.set_current t.obs prev_ctx
  end

and attempt_failed t pack (r : req) ~sync =
  r.attempts <- r.attempts + 1;
  breaker_note_failure t (pack_state t pack) ~offline:false;
  if r.attempts >= t.config.retry_limit then begin
    (* N consecutive failures: the record is declared dead and retired
       so nothing ever allocates or touches it again. *)
    t.st.s_gave_up <- t.st.s_gave_up + 1;
    Disk.mark_dead t.disk ~pack ~record:r.record;
    fail t pack r Dead_record
  end
  else if (not sync) && not (budget_allows t r) then begin
    (* The requester's retry budget is spent: give the record up for
       this request (it stays alive for others) instead of queueing
       another backoff nobody will wait for. *)
    t.st.s_budget_denied <- t.st.s_budget_denied + 1;
    fail t pack r Timed_out
  end
  else begin
    t.st.s_retries <- t.st.s_retries + 1;
    Multics_obs.Sink.instant t.obs ~arg:r.record ~cat:"io" ~name:"retry" ();
    if sync then execute_req ~sync t pack r
    else begin
      let p = pack_state t pack in
      p.retrying <- r :: p.retrying;
      let base = t.config.transfer_ns * (1 lsl (r.attempts - 1)) in
      (* Deterministic jitter in quarter-steps of the base delay, drawn
         through the choice plane: the inert strategy picks 0 (the
         plain exponential backoff), the seeded-LCG strategy spreads
         colliding retries, and the explorer enumerates all four
         delays. *)
      let k = Choice.pick t.choice ~domain:"io.backoff" ~ids:jitter_ids in
      let backoff = base + (k * base / 4) in
      t.schedule ~delay:backoff (fun () ->
          p.retrying <- List.filter (fun x -> x != r) p.retrying;
          execute_req t pack r)
    end
  end

(* Deliver the sweep's completions one at a time in strategy order.
   Sweep order (the inert default) reflects the arm's travel, but the
   interrupt side of a real channel imposes no such order — that is the
   delivery-order race the explorer probes. *)
let rec deliver_chosen ~sync t p = function
  | [] -> ()
  | [ r ] -> execute_req ~sync t p.id r
  | rs ->
      let ids = Array.of_list (List.map (fun (r : req) -> r.seq) rs) in
      let i = Choice.pick t.choice ~domain:"io.deliver" ~ids in
      execute_req ~sync t p.id (List.nth rs i);
      deliver_chosen ~sync t p (List.filteri (fun j _ -> j <> i) rs)

let finish_batch ?(sync = false) t p batch cost =
  let st = t.st in
  st.s_batches <- st.s_batches + 1;
  st.s_busy_ns <- st.s_busy_ns + cost;
  let size = List.length batch in
  if size > st.s_max_batch then st.s_max_batch <- size;
  if not (Choice.is_active t.choice) then
    List.iter (execute_req ~sync t p.id) batch
  else deliver_chosen ~sync t p batch;
  Multics_obs.Sink.add_latency t.obs ~name:"io.batch" cost

let bar_records p batch =
  List.iter
    (fun r ->
      let n =
        match Hashtbl.find_opt p.busy_records r.record with
        | Some n -> n
        | None -> 0
      in
      Hashtbl.replace p.busy_records r.record (n + 1))
    batch

let release_records p batch =
  List.iter
    (fun r ->
      match Hashtbl.find_opt p.busy_records r.record with
      | Some n when n > 1 -> Hashtbl.replace p.busy_records r.record (n - 1)
      | Some _ -> Hashtbl.remove p.busy_records r.record
      | None -> ())
    batch

(* Cut a sweep for arm [w] from the sorted pool: the first [max_batch]
   requests of the circular pass from the arm's head, priced, with the
   overflow requeued behind [rest] and the head moved past the last
   record served. *)
let cut_sweep t p w ~sorted ~rest =
  let batch, overflow =
    split_batch t.config.max_batch [] (sweep_from ~head:w.head sorted)
  in
  p.queue <- rest @ overflow;
  p.depth <- p.depth - List.length batch;
  let cost = batch_cost t ~head:w.head batch in
  (match List.rev batch with
  | last :: _ -> w.head <- last.record + 1
  | [] -> ());
  (batch, cost)

(* Assign as many sweeps to free arms as the queue supports.  Way
   choice is nearest-first: the free way whose head is closest (in
   forward circular distance) to the first record the sweep would
   serve, ties to the lowest way id — a continuation always wins, so a
   sequential stream keeps its arm. *)
let rec dispatch t p =
  (* Deadline checkpoint: cancel not-yet-issued reads whose context
     deadline has passed — the requester no longer wants the answer,
     so the arm time is better spent on the living.  Writes are never
     cancelled here: the image must still reach the platter. *)
  if t.has_deadlines && p.depth > 0 then begin
    let now = t.now () in
    let dead, alive =
      List.partition
        (fun r ->
          is_read r && Multics_obs.Sink.ctx_expired t.obs ~now r.req_ctx)
        p.queue
    in
    if dead <> [] then begin
      p.queue <- alive;
      p.depth <- p.depth - List.length dead;
      List.iter
        (fun (r : req) ->
          t.st.s_timeouts <- t.st.s_timeouts + 1;
          let prev = Multics_obs.Sink.current t.obs in
          Multics_obs.Sink.set_current t.obs r.req_ctx;
          fail t p.id r Timed_out;
          Multics_obs.Sink.set_current t.obs prev)
        dead
    end
  end;
  (* While the breaker is open nothing dispatches; the cooldown event
     flips to half-open and re-enters here with the queue as probe. *)
  if (not (breaker_suppressed t p)) && p.depth > 0 then begin
    match select_pool t p with
    | None -> ()
    | Some (pool, rest, deadline_forced) ->
        let sorted = List.sort by_record_seq pool in
        let free =
          Array.fold_right
            (fun w acc -> if w.w_busy then acc else w :: acc)
            p.ways []
        in
        (* Write throttle: an unexpired write-only sweep never takes
           the last free arm — one arm stays ready for the read that
           blocks a processor the moment it arrives.  Deadline sweeps
           are exempt (the starvation bound outranks read latency), as
           are single-way packs (nothing to reserve). *)
        if
          (not deadline_forced)
          && (not (List.exists is_read sorted))
          && Array.length p.ways > 1
          && List.length free <= 1
        then ()
        else
          let best =
            List.fold_left
              (fun acc w ->
                let d = way_distance t ~head:w.head sorted in
                match acc with
                | Some (bd, (bw : way)) when (bd, bw.wid) <= (d, w.wid) -> acc
                | _ -> Some (d, w))
              None free
          in
          match best with
          | None -> ()
          | Some (_, w) -> launch t p w ~sorted ~rest ~deadline_forced
  end

and launch t p w ~sorted ~rest ~deadline_forced =
  let batch, cost = cut_sweep t p w ~sorted ~rest in
  (* A nonempty pool and [max_batch > 0] make a nonempty batch. *)
  if deadline_forced then
    t.st.s_deadline_batches <- t.st.s_deadline_batches + 1;
  w.w_busy <- true;
  bar_records p batch;
  let live = ref true in
  let id = t.batch_seq in
  t.batch_seq <- t.batch_seq + 1;
  p.inflight <- (batch, cost, live, id, w) :: p.inflight;
  Multics_obs.Sink.async_begin t.obs ~tid:p.id ~arg:(List.length batch)
    ~cat:"io" ~name:"batch" ~id ();
  (* Queue age: how long each request waited for an arm, sampled at
     dispatch under the request's own context so the I/O SLO
     watchdog blames the right requester. *)
  List.iter
    (fun (r : req) ->
      let prev = Multics_obs.Sink.current t.obs in
      Multics_obs.Sink.set_current t.obs r.req_ctx;
      Multics_obs.Sink.add_latency t.obs ~name:"io.queue_age"
        (t.now () - r.submitted);
      Multics_obs.Sink.set_current t.obs prev)
    batch;
  t.schedule ~delay:cost (fun () ->
      (* [live] goes false when quiesce or crash already settled
         the sweep; the stale completion event must be a no-op. *)
      if !live then begin
        live := false;
        p.inflight <-
          List.filter (fun (_, _, l, _, _) -> l != live) p.inflight;
        release_records p batch;
        w.w_busy <- false;
        Multics_obs.Sink.async_end t.obs ~tid:p.id ~cat:"io"
          ~name:"batch" ~id ();
        finish_batch t p batch cost;
        dispatch t p
      end);
  (* More work and more arms may remain. *)
  dispatch t p

let () = dispatch_ref := dispatch

let kick t p =
  if not p.kick_planted then begin
    p.kick_planted <- true;
    (* Delay 0: the dispatch runs after the current event handler, so
       every request submitted at this instant lands in one sweep. *)
    t.schedule ~delay:0 (fun () ->
        p.kick_planted <- false;
        dispatch t p)
  end

let submit t ~pack ~record op =
  let p = pack_state t pack in
  assert (record >= 0 && record < Disk.records_per_pack t.disk);
  let r =
    { seq = t.seq; record; submitted = t.now (); op;
      req_ctx = Multics_obs.Sink.current t.obs; cancelled = false;
      attempts = 0 }
  in
  t.seq <- t.seq + 1;
  if Multics_obs.Sink.ctx_deadline t.obs r.req_ctx > 0 then
    t.has_deadlines <- true;
  Multics_obs.Sink.count t.obs "io.submit";
  Multics_obs.Sink.instant t.obs ~tid:p.id ~arg:record ~cat:"io"
    ~name:"submit" ();
  p.queue <- r :: p.queue;
  p.depth <- p.depth + 1;
  if p.depth > t.st.s_queue_peak then t.st.s_queue_peak <- p.depth;
  kick t p;
  r

let submit_read t ~pack ~record ~done_ =
  t.st.s_reads <- t.st.s_reads + 1;
  if ctx_expired t (Multics_obs.Sink.current t.obs) then begin
    (* Enqueue checkpoint: the requester's deadline already passed. *)
    t.st.s_timeouts <- t.st.s_timeouts + 1;
    deliver_later t done_ (Error Timed_out)
  end
  else if not (breaker_admits t (pack_state t pack)) then begin
    t.st.s_fast_fails <- t.st.s_fast_fails + 1;
    deliver_later t done_ (Error Breaker_open)
  end
  else
  (* Write-buffer read hit: the newest buffered image is exactly what
     this read must observe (every pending write predates it), and it
     is already in core — serve it without touching an arm.  Error
     paths still queue so offline/dead handling stays in one place. *)
  match Hashtbl.find_opt t.pending_writes (pack, record) with
  | Some ((_, img) :: _)
    when (not (pack_is_offline t pack))
         && not (Disk.record_is_dead t.disk ~pack ~record) ->
      t.st.s_buffer_hits <- t.st.s_buffer_hits + 1;
      deliver_later t done_ (Ok img)
  | _ -> ignore (submit t ~pack ~record (Read done_))

let submit_write t ?done_ ~pack ~record img =
  t.st.s_writes <- t.st.s_writes + 1;
  if not (breaker_admits t (pack_state t pack)) then begin
    (* Fail fast without buffering an image a closed breaker would
       later flush over newer data.  Expired-deadline writes are NOT
       shed: durability outranks the deadline. *)
    t.st.s_fast_fails <- t.st.s_fast_fails + 1;
    match done_ with
    | Some f -> deliver_later t f (Error Breaker_open)
    | None -> ()
  end
  else
  let r = submit t ~pack ~record (Write (img, done_)) in
  let prev =
    match Hashtbl.find_opt t.pending_writes (pack, record) with
    | Some l -> l
    | None -> []
  in
  Hashtbl.replace t.pending_writes (pack, record)
    ((r.seq, img) :: prev)

let cancel_writes t ~pack ~record =
  let p = pack_state t pack in
  let cancel r =
    match r.op with
    | Write _ when r.record = record && not r.cancelled ->
        r.cancelled <- true;
        t.st.s_cancelled <- t.st.s_cancelled + 1
    | _ -> ()
  in
  List.iter cancel p.queue;
  List.iter (fun (batch, _, _, _, _) -> List.iter cancel batch) p.inflight;
  List.iter cancel p.retrying;
  Hashtbl.remove t.pending_writes (pack, record)

(* Inline bounded retry: a blocking shim cannot wait out a backoff, so
   it burns its attempts back to back while [fails] says the attempt
   failed, and the last failure retires the record.  [transfer] is the
   successful attempt. *)
let retry_inline t ~pack ~record ~fails transfer =
  let rec go attempts =
    if fails t.faults ~pack ~record then
      if attempts + 1 >= t.config.retry_limit then begin
        t.st.s_gave_up <- t.st.s_gave_up + 1;
        Disk.mark_dead t.disk ~pack ~record;
        Error Dead_record
      end
      else begin
        t.st.s_retries <- t.st.s_retries + 1;
        go (attempts + 1)
      end
    else Ok (transfer ())
  in
  go 0

let read_now t ~pack ~record =
  if pack_is_offline t pack then Error Pack_offline
  else if Disk.record_is_dead t.disk ~pack ~record then Error Dead_record
  else
    match Hashtbl.find_opt t.pending_writes (pack, record) with
    | Some ((_, img) :: _) ->
        (* Count the transfer the caller is paying for. *)
        ignore (Disk.read_record t.disk ~pack ~record);
        Ok img
    | _ ->
        retry_inline t ~pack ~record ~fails:Fault_inject.read_attempt_fails
          (fun () -> Disk.read_record t.disk ~pack ~record)

let write_now t ~pack ~record img =
  if pack_is_offline t pack then Error Pack_offline
  else if Disk.record_is_dead t.disk ~pack ~record then Error Dead_record
  else begin
    cancel_writes t ~pack ~record;
    retry_inline t ~pack ~record ~fails:Fault_inject.write_attempt_fails
      (fun () ->
        Disk.write_record t.disk ~pack ~record img;
        Hashtbl.replace t.applied_seq (pack, record) t.seq;
        t.on_apply ~pack ~record ~acked:true img)
  end

let quiesce t =
  Array.iter
    (fun p ->
      List.iter
        (fun (batch, cost, live, id, w) ->
          if !live then begin
            live := false;
            Multics_obs.Sink.async_end t.obs ~tid:p.id ~cat:"io" ~name:"batch"
              ~id ();
            finish_batch ~sync:true t p batch cost
          end;
          w.w_busy <- false)
        p.inflight;
      p.inflight <- [];
      Hashtbl.reset p.busy_records;
      (* Backoff-parked requests can't wait out their delay either;
         finish them inline with the bounded sync retry. *)
      let parked = p.retrying in
      p.retrying <- [];
      List.iter
        (fun r ->
          execute_req ~sync:true t p.id r;
          (* The backoff event is still planted; flag the request so
             that stale firing cannot deliver a second completion. *)
          r.cancelled <- true)
        parked;
      (* Drain the queue in plain elevator order on arm 0: deadline
         and read preference are about who waits, and at quiesce nobody
         does. *)
      let w = p.ways.(0) in
      let rec drain () =
        match List.sort by_record_seq p.queue with
        | [] -> ()
        | sorted ->
            let batch, cost = cut_sweep t p w ~sorted ~rest:[] in
            finish_batch ~sync:true t p batch cost;
            drain ()
      in
      drain ();
      Array.iter (fun w -> w.w_busy <- false) p.ways)
    t.packs

let crash t ~surviving_writes =
  assert (surviving_writes >= 0);
  (* Collect every buffered, uncancelled write — queued, in-flight, or
     parked on a retry backoff — in submission order. *)
  let pending = ref [] in
  let collect pack (r : req) =
    match r.op with
    | Write (img, _) when not r.cancelled -> pending := (pack, r, img) :: !pending
    | _ -> ()
  in
  Array.iter
    (fun p ->
      List.iter (collect p.id) p.queue;
      List.iter
        (fun (batch, _, live, _, _) ->
          if !live then List.iter (collect p.id) batch)
        p.inflight;
      List.iter (collect p.id) p.retrying)
    t.packs;
  let ordered =
    List.sort
      (fun (_, (a : req), _) (_, (b : req), _) -> compare a.seq b.seq)
      !pending
  in
  List.iteri
    (fun i (pack, r, img) ->
      if i < surviving_writes then
        (* Reached the platter before the power died, but the
           completion never fires: a durable, unacknowledged write. *)
        apply_write t pack r img ~acked:false
      else
        (* Dropped on the floor.  Records are write-atomic, so the old
           complete image survives; the torn mark tells the salvager
           the buffered image was lost. *)
        Disk.mark_torn t.disk ~pack ~record:r.record)
    ordered;
  Array.iter
    (fun p ->
      p.queue <- [];
      p.depth <- 0;
      p.breaker <- Br_closed;
      p.consec_fails <- 0;
      List.iter (fun (_, _, live, _, _) -> live := false) p.inflight;
      p.inflight <- [];
      p.retrying <- [];
      Hashtbl.reset p.busy_records;
      Array.iter (fun w -> w.w_busy <- false) p.ways)
    t.packs;
  Hashtbl.reset t.pending_writes;
  List.length ordered

let queue_depth t ~pack = (pack_state t pack).depth

let breaker_state t ~pack =
  match (pack_state t pack).breaker with
  | Br_closed -> `Closed
  | Br_open _ -> `Open
  | Br_half -> `Half_open

let recoveries t ~pack = (pack_state t pack).closes

let stats t = { t.st with s_reads = t.st.s_reads }

let mean_batch s =
  if s.s_batches = 0 then 0.0
  else float_of_int (s.s_reads + s.s_writes) /. float_of_int s.s_batches
