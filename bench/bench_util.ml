(* Shared helpers for the bench sections. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Aim = Multics_aim

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let section id title =
  Format.printf "@.%s@." (String.make 72 '=');
  Format.printf "%s  %s@." id title;
  Format.printf "%s@.@." (String.make 72 '=')

let file_writer ~dir ~name ~pages =
  K.Workload.concat
    [ [| K.Workload.Create_file { dir; name };
         K.Workload.Initiate { path = dir ^ ">" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages ]

let boot_new ?(config = K.Kernel.default_config) () =
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  k

let boot_old ?(config = L.Old_supervisor.default_config) () =
  let s = L.Old_supervisor.boot config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  s

let us ns = float_of_int ns /. 1_000.0

(* Everything the run left on disk: VTOC shape, file maps, and the
   words of every allocated record.  Computed after [shutdown], whose
   quiesce barrier settles outstanding write-behinds — so a divergence
   here means a transfer was lost or misdirected. *)
let disk_checksum k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let h = ref 0 in
  let mix v = h := (((!h * 31) + v + 1) lxor (!h lsr 17)) land max_int in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (index, (e : Hw.Disk.vtoc_entry)) ->
        mix index;
        mix e.Hw.Disk.uid;
        mix e.Hw.Disk.len_pages;
        Array.iter
          (fun handle ->
            mix handle;
            if handle >= 0 then
              Hw.Page_image.iter mix
                (Hw.Disk.read_record d
                   ~pack:(Hw.Disk.pack_of_handle handle)
                   ~record:(Hw.Disk.record_of_handle handle)))
          e.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !h

(* The words a reader of every file would see, ignoring record
   placement: an unallocated page reads as zeros, which is also exactly
   what a zero-reclaimed record held.  Invariant to when the replacement
   clock caught an all-zero page — the one disk-state decision that
   legitimately moves with I/O timing — where [disk_checksum] is not. *)
let disk_checksum_logical k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let h = ref 0 in
  let mix v = h := (((!h * 31) + v + 1) lxor (!h lsr 17)) land max_int in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (index, (e : Hw.Disk.vtoc_entry)) ->
        mix index;
        mix e.Hw.Disk.uid;
        mix e.Hw.Disk.len_pages;
        Array.iter
          (fun handle ->
            if handle >= 0 then
              Hw.Page_image.iter mix
                (Hw.Disk.read_record d
                   ~pack:(Hw.Disk.pack_of_handle handle)
                   ~record:(Hw.Disk.record_of_handle handle))
            else for _ = 1 to Hw.Addr.page_size do mix 0 done)
          e.Hw.Disk.file_map)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Machine-readable metrics.  Sections push rows here; main writes the
   accumulated list to BENCH_perf.json after the run. *)

type metric = {
  m_section : string;
  m_metric : string;
  m_value : float;
  m_unit : string;
  m_host : (int * string) option;
      (* cores and OCaml version of the host a wall-clock row ran on *)
}

let metrics : metric list ref = ref []

(* A wall-clock number means little without the machine behind it, so
   every wall-clock row carries the host's core count and OCaml
   version.  Simulated-time rows are host-independent and carry
   neither. *)
let record ~section ~metric ?(unit = "ns") value =
  let m_host =
    if String.ends_with ~suffix:"_wall" unit then
      Some (Domain.recommended_domain_count (), Sys.ocaml_version)
    else None
  in
  metrics :=
    { m_section = section; m_metric = metric; m_value = value; m_unit = unit;
      m_host }
    :: !metrics

let recordi ~section ~metric ?unit value =
  record ~section ~metric ?unit (float_of_int value)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* One row of the one-line-per-row shape [write_metrics] emits; anything
   else (the brackets, a hand-edited file) parses to None and is
   dropped. *)
let parse_row line =
  let line = String.trim line in
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = ',' then String.sub line 0 (n - 1) else line
  in
  let row s m v u m_host =
    Some { m_section = s; m_metric = m; m_value = v; m_unit = u; m_host }
  in
  let scan fmt f =
    try Scanf.sscanf line fmt f
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None
  in
  match
    scan
      "{\"section\": %S, \"metric\": %S, \"value\": %f, \"unit\": %S, \
       \"cores\": %d, \"ocaml\": %S}"
      (fun s m v u cores ocaml -> row s m v u (Some (cores, ocaml)))
  with
  | Some _ as r -> r
  | None ->
      scan
        "{\"section\": %S, \"metric\": %S, \"value\": %f, \"unit\": %S}"
        (fun s m v u -> row s m v u None)

let read_metrics ~path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rows = ref [] in
      (try
         while true do
           match parse_row (input_line ic) with
           | Some m -> rows := m :: !rows
           | None -> ()
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !rows

(* Merge-by-section: rows from sections that ran replace that section's
   rows in the existing file; sections that did not run are kept.  A
   partial run (`bench C2`) therefore refreshes its own table without
   clobbering the rest.  Sections are written in sorted order and rows
   in recording order, so the same set of rows always produces the same
   bytes regardless of which runs contributed them. *)
let write_metrics ~path =
  let fresh = List.rev !metrics in
  let ran = List.sort_uniq compare (List.map (fun m -> m.m_section) fresh) in
  let kept =
    List.filter (fun m -> not (List.mem m.m_section ran)) (read_metrics ~path)
  in
  let rows = kept @ fresh in
  let sections =
    List.sort_uniq compare (List.map (fun m -> m.m_section) rows)
  in
  let rows =
    List.concat_map
      (fun s -> List.filter (fun m -> m.m_section = s) rows)
      sections
  in
  let n = List.length rows in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i m ->
      let host =
        match m.m_host with
        | Some (cores, ocaml) ->
            Printf.sprintf ", \"cores\": %d, \"ocaml\": \"%s\"" cores
              (json_escape ocaml)
        | None -> ""
      in
      Printf.fprintf oc
        "  {\"section\": \"%s\", \"metric\": \"%s\", \"value\": %s, \
         \"unit\": \"%s\"%s}%s\n"
        (json_escape m.m_section) (json_escape m.m_metric)
        (json_number m.m_value) (json_escape m.m_unit) host
        (if i < n - 1 then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  Format.printf "@.%d metrics -> %s (%d refreshed, %d kept)@." n path
    (List.length fresh) (List.length kept)

let write_section_metrics ~section ~path =
  let saved = !metrics in
  metrics := List.filter (fun m -> m.m_section = section) saved;
  write_metrics ~path;
  metrics := saved

let pct_delta a b =
  (* how much slower b is than a, in percent *)
  100.0 *. (float_of_int b -. float_of_int a) /. float_of_int a

let row2 label a b = Format.printf "  %-38s %12s %12s@." label a b
let fmt_us ns = Printf.sprintf "%.1f us" (us ns)
