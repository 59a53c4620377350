type access = Observe | Modify

type subject = { s_label : Label.t; s_trusted : bool }

type t = {
  subjects : (string, subject) Hashtbl.t;
  objects : (string, Label.t) Hashtbl.t;
  mutable current : (string * string * access) list;
}

let create () =
  { subjects = Hashtbl.create 8; objects = Hashtbl.create 8; current = [] }

let add_subject t ~name ~label ~trusted =
  Hashtbl.replace t.subjects name { s_label = label; s_trusted = trusted }

let add_object t ~name ~label = Hashtbl.replace t.objects name label

let subject t name =
  match Hashtbl.find_opt t.subjects name with
  | Some s -> s
  | None -> invalid_arg ("Mitre: unknown subject " ^ name)

let object_label t name =
  match Hashtbl.find_opt t.objects name with
  | Some l -> l
  | None -> invalid_arg ("Mitre: unknown object " ^ name)

let triple_ok t (s_name, o_name, access) =
  let s = subject t s_name in
  let o = object_label t o_name in
  match access with
  | Observe -> Label.dominates s.s_label o || s.s_trusted
  | Modify -> Label.dominates o s.s_label || s.s_trusted

let secure t = List.for_all (triple_ok t) t.current

let violations t =
  List.filter_map
    (fun ((s_name, o_name, access) as triple) ->
      if triple_ok t triple then None
      else
        Some
          (Printf.sprintf "%s %s %s violates the %s" s_name
             (match access with Observe -> "observes" | Modify -> "modifies")
             o_name
             (match access with
             | Observe -> "simple security property"
             | Modify -> "*-property")))
    t.current

let request t ~subject:s_name ~object_:o_name access =
  (* Validate the names eagerly. *)
  ignore (subject t s_name);
  ignore (object_label t o_name);
  let candidate = (s_name, o_name, access) in
  if triple_ok t candidate then begin
    if not (List.mem candidate t.current) then
      t.current <- candidate :: t.current;
    `Granted
  end
  else `Refused

let release t ~subject:s_name ~object_:o_name access =
  t.current <-
    List.filter (fun triple -> triple <> (s_name, o_name, access)) t.current
