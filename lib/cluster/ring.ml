(* FNV-1a, folded to the non-negative OCaml int range so points compare
   with plain [compare].  Self-contained: placement must never move
   because a stdlib hash changed. *)
(* The 64-bit offset basis does not fit OCaml's 63-bit int literal
   range; assembling it from halves wraps the same way 64-bit
   multiplication does below, which is all FNV needs. *)
let fnv_offset = (0xcbf29ce4 lsl 32) lor 0x84222325
let fnv_prime = 0x100000001b3

(* Murmur3/splitmix-style finalizer.  Raw FNV has weak high-bit
   avalanche on short, similar keys ("u0001", "u0002", ...): their
   hashes differ only in low bits and land on one tight arc of the
   circle, defeating the ring entirely.  The avalanche spreads them. *)
let mix_c1 = (0xff51afd7 lsl 32) lor 0xed558ccd
let mix_c2 = (0xc4ceb9fe lsl 32) lor 0x1a85ec53

let finalize h =
  let h = h lxor (h lsr 33) in
  let h = h * mix_c1 in
  let h = h lxor (h lsr 33) in
  let h = h * mix_c2 in
  let h = h lxor (h lsr 33) in
  h land max_int

let hash key =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * fnv_prime)
    key;
  finalize !h

type t = {
  r_vnodes : int;
  r_ids : int list;  (* shard ids present, ascending *)
  (* Points sorted by position; ties (astronomically unlikely but
     cheap to define away) break toward the lower shard id. *)
  r_points : (int * int) array;  (* (position, shard) *)
}

let point_of ~shard ~vnode = hash (Printf.sprintf "shard%d#%d" shard vnode)

let build ~vnodes ids =
  let points =
    List.concat_map
      (fun shard ->
        List.init vnodes (fun v -> (point_of ~shard ~vnode:v, shard)))
      ids
  in
  let arr = Array.of_list points in
  Array.sort compare arr;
  { r_vnodes = vnodes; r_ids = ids; r_points = arr }

let create ~shards ?(vnodes = 64) () =
  if shards < 1 then invalid_arg "Ring.create: need at least one shard";
  if vnodes < 1 then invalid_arg "Ring.create: need at least one vnode";
  build ~vnodes (List.init shards Fun.id)


(* First point at or after [h], wrapping to the first point past the
   top of the circle. *)
let shard_of t key =
  let h = hash key in
  let n = Array.length t.r_points in
  let lo = ref 0 and hi = ref n in
  (* Smallest index with position >= h. *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.r_points.(mid) >= h then hi := mid else lo := mid + 1
  done;
  snd t.r_points.(if !lo = n then 0 else !lo)

let add_shard t =
  let next = List.fold_left (fun acc id -> max acc (id + 1)) 0 t.r_ids in
  build ~vnodes:t.r_vnodes (t.r_ids @ [ next ])

let remove_shard t id =
  if not (List.mem id t.r_ids) then
    invalid_arg "Ring.remove_shard: no such shard";
  match List.filter (fun i -> i <> id) t.r_ids with
  | [] -> invalid_arg "Ring.remove_shard: ring would be empty"
  | ids -> build ~vnodes:t.r_vnodes ids
