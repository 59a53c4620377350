type dbr = { base : Addr.abs; n_segments : int }

type t = {
  id : int;
  mutable ring : int;
  mutable user_dbr : dbr option;
  mutable system_dbr : dbr option;
  mutable locked_ptw : Addr.abs option;
  mutable translations : int;
  mutable faults : int;
  tlb : Assoc_mem.t;
  mutable xl_ns : int;
}

let create ~id =
  { id; ring = 0; user_dbr = None; system_dbr = None; locked_ptw = None;
    translations = 0; faults = 0; tlb = Assoc_mem.create (); xl_ns = 0 }

(* A process switch invalidates the associative memory: the cached SDWs
   describe the outgoing address space.  System segments (below the
   split) are flushed too — the hardware cleared the whole AM. *)
let load_user_dbr t dbr =
  t.user_dbr <- dbr;
  Assoc_mem.flush t.tlb

(* Which descriptor table serves this segment number. *)
let select_dbr (config : Hw_config.t) t segno =
  if config.dual_dbr && segno < config.system_segno_split then t.system_dbr
  else t.user_dbr

(* Top-level, not a closure inside [translate]: the per-call closure
   showed up as the hot path's only always-taken allocation. *)
let fault t f =
  t.faults <- t.faults + 1;
  Error f

let translate (config : Hw_config.t) mem t (virt : Addr.virt) access =
  t.translations <- t.translations + 1;
  let segno = virt.Addr.segno in
  match select_dbr config t segno with
  | None -> fault t (Fault.Missing_segment { segno })
  | Some dbr ->
      if segno >= dbr.n_segments then fault t (Fault.Missing_segment { segno })
      else
        let am_on = config.assoc_mem_size > 0 in
        if am_on then Assoc_mem.resize t.tlb config.assoc_mem_size;
        let cached =
          if am_on then Assoc_mem.probe t.tlb ~segno else None
        in
        let sdw =
          match cached with
          | Some e ->
              t.xl_ns <- t.xl_ns + config.tlb_hit_cost;
              e.Assoc_mem.e_sdw
          | None ->
              let sdw = Sdw.read_at mem (dbr.base + (segno * Sdw.words)) in
              t.xl_ns <- t.xl_ns + config.walk_cost;
              (* Only translatable SDWs enter the AM; invalid or faulted
                 descriptors always re-walk, so installing a fresh SDW
                 over an invalid one needs no flush. *)
              if am_on && sdw.Sdw.valid && sdw.Sdw.present then
                Assoc_mem.insert t.tlb ~segno ~sdw;
              sdw
        in
        if not (sdw.Sdw.valid && sdw.Sdw.present) then
          fault t (Fault.Missing_segment { segno })
        else if not (Sdw.permits sdw ~ring:t.ring access) then
          fault t (Fault.Access_violation { segno; access; ring = t.ring })
        else
          let pageno = Addr.pageno virt in
          if pageno >= sdw.Sdw.length then
            fault t (Fault.Bounds_fault { segno; wordno = virt.Addr.wordno })
          else
            let ptw_abs = sdw.Sdw.page_table + pageno in
            (* The PTW is re-read even on an AM hit: replacement and
               quota depend on the used/modified bits every translation
               writes back, and the lock/fault bits must be observed
               fresh.  Only the SDW fetch is skipped.  The word is
               tested bit-in-place via the raw probes — decoding a
               descriptor record per reference was the hot path's
               biggest allocation. *)
            let w = Phys_mem.read mem ptw_abs in
            if not (Ptw.raw_valid w) then
              fault t (Fault.Bounds_fault { segno; wordno = virt.Addr.wordno })
            else if config.descriptor_lock_bit && Ptw.raw_locked w then begin
              t.locked_ptw <- Some ptw_abs;
              fault t (Fault.Locked_descriptor { segno; pageno; ptw_abs })
            end
            else if Ptw.raw_unallocated w then
              if config.quota_fault_bit then
                fault t (Fault.Quota_fault { segno; pageno })
              else fault t (Fault.Missing_page { segno; pageno; ptw_abs })
            else if not (Ptw.raw_present w) then begin
              (* New hardware: close the race window by locking the
                 descriptor in the same cycle that takes the fault. *)
              if config.descriptor_lock_bit then begin
                Phys_mem.write mem ptw_abs (Ptw.raw_lock w);
                t.locked_ptw <- Some ptw_abs
              end;
              fault t (Fault.Missing_page { segno; pageno; ptw_abs })
            end
            else begin
              let w' =
                Ptw.raw_mark_accessed w ~write:(access = Fault.Write)
              in
              if w' <> w then Phys_mem.write mem ptw_abs w';
              Ok (Addr.frame_base (Ptw.raw_arg w) + Addr.offset virt)
            end

let read config mem t virt =
  match translate config mem t virt Fault.Read with
  | Error f -> Error f
  | Ok abs -> Ok (Phys_mem.read mem abs)
