type principal = { user : string; project : string }

type mode = { read : bool; write : bool; execute : bool }

let no_access = { read = false; write = false; execute = false }
let r = { read = true; write = false; execute = false }
let rw = { read = true; write = true; execute = false }
let rwe = { read = true; write = true; execute = true }

type entry = { who_user : string; who_project : string; mode : mode }

type t = entry list

let entry ?(project = "*") user mode =
  { who_user = user; who_project = project; mode }

let matches e p =
  (e.who_user = "*" || e.who_user = p.user)
  && (e.who_project = "*" || e.who_project = p.project)

let check acl p =
  match List.find_opt (fun e -> matches e p) acl with
  | Some e -> e.mode
  | None -> no_access

let permits acl p access =
  let mode = check acl p in
  match access with
  | `Read -> mode.read
  | `Write -> mode.write
  | `Execute -> mode.execute

let pp_mode ppf m =
  Format.fprintf ppf "%s%s%s"
    (if m.read then "r" else "-")
    (if m.write then "w" else "-")
    (if m.execute then "e" else "-")

let pp ppf acl =
  List.iter
    (fun e ->
      Format.fprintf ppf "%s.%s:%a " e.who_user e.who_project pp_mode e.mode)
    acl
