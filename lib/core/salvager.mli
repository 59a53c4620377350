(** The salvager.

    Multics ran a salvager after every crash to reconcile the directory
    hierarchy, the VTOCs and the quota accounts; the paper's reliability
    argument ("many other operating system reliability failures should
    not occur ... operational failures can be traced") assumes such a
    tool exists.  This one walks the disk and the directory records,
    reports inconsistencies, and repairs the repairable ones:

    - {e stale entries}: a directory entry whose (pack, VTOC index) no
      longer matches the segment's true home (a lost Segment_moved
      signal) — repaired by repointing the entry;
    - {e quota mismatches}: a cell whose count disagrees with the
      allocated pages it controls — repaired by recomputing;
    - {e orphan VTOC entries}: segments on disk that no directory names
      (process-state segments of live processes are exempt) — reported,
      except a dead incarnation's process-state segments, which are
      reclaimed as Multics reclaimed [>pdd] at bootload;
    - {e leaked records}: allocated records no file map references —
      repaired by freeing (dead records are retired, not leaked);
    - {e damaged pages}: a file map naming a dead record (media error)
      — repaired by substituting a page of zeros, which keeps the quota
      charge, and clearing the VTOC damaged switch;
    - {e torn writes}: records a power failure caught mid-flush.
      Records are write-atomic, so a torn record still holds its last
      complete image; repair accepts it and clears the mark. *)

type kind =
  | Stale_entry
  | Quota_mismatch
  | Orphan_vtoc
  | Leaked_record
  | Damaged_page
  | Torn_write

type finding = { f_kind : kind; f_detail : string; f_repairable : bool }

val scan : Kernel.t -> finding list

val repair : Kernel.t -> int
(** Scan and fix everything repairable; returns how many findings were
    repaired.  A second scan afterwards reports only orphans (which
    need an operator's judgement). *)

val pp_finding : Format.formatter -> finding -> unit
