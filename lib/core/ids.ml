type uid = int

let mythical_tag = 1 lsl 40

let generator ?(start = 0) () =
  let next = ref start in
  fun () ->
    incr next;
    !next

let to_int u = u
let of_int i = i
let equal = Int.equal
let is_mythical u = u land mythical_tag <> 0

(* FNV-1a over the search key, truncated below the tag bit. *)
let mythical ~parent ~name =
  let h = ref 0x3f29ce484222325 in
  let mix byte = h := (!h lxor byte) * 0x100000001b3 land max_int in
  mix (parent land 0xff);
  mix ((parent lsr 8) land 0xff);
  mix ((parent lsr 16) land 0xff);
  String.iter (fun ch -> mix (Char.code ch)) name;
  mythical_tag lor (!h land (mythical_tag - 1))

let pp ppf u =
  if is_mythical u then Format.fprintf ppf "uid~%x (mythical)" (u land 0xffffff)
  else Format.fprintf ppf "uid%d" u
