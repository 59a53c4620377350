type action =
  | Touch of { seg_reg : int; pageno : int; offset : int; write : bool }
  | Compute of int
  | Initiate of { path : string; reg : int }
  | Terminate_seg of { seg_reg : int }
  | Create_file of { dir : string; name : string }
  | Create_dir of { parent : string; name : string }
  | Delete of { path : string }
  | Set_quota of { path : string; pages : int }
  | Set_acl of { path : string; user : string; read : bool; write : bool }
  | List_dir of { path : string }
  | Execute of { seg_reg : int; entry : int }
  | Await_ec of { ec : string; value : int }
  | Advance_ec of { ec : string }
  | Terminate

type program = action array

let n_registers = 8

let pp_action ppf = function
  | Touch { seg_reg; pageno; offset; write } ->
      Format.fprintf ppf "touch r%d page %d offset %d %s" seg_reg pageno offset
        (if write then "w" else "r")
  | Compute ns -> Format.fprintf ppf "compute %dns" ns
  | Initiate { path; reg } -> Format.fprintf ppf "initiate %s -> r%d" path reg
  | Terminate_seg { seg_reg } -> Format.fprintf ppf "terminate r%d" seg_reg
  | Create_file { dir; name } -> Format.fprintf ppf "create %s/%s" dir name
  | Create_dir { parent; name } -> Format.fprintf ppf "mkdir %s/%s" parent name
  | Delete { path } -> Format.fprintf ppf "delete %s" path
  | Set_quota { path; pages } ->
      Format.fprintf ppf "set-quota %s %d pages" path pages
  | Set_acl { path; user; read; write } ->
      Format.fprintf ppf "set-acl %s %s:%s%s" path user
        (if read then "r" else "-")
        (if write then "w" else "-")
  | List_dir { path } -> Format.fprintf ppf "list %s" path
  | Execute { seg_reg; entry } ->
      Format.fprintf ppf "execute r%d entry %o" seg_reg entry
  | Await_ec { ec; value } -> Format.fprintf ppf "await %s >= %d" ec value
  | Advance_ec { ec } -> Format.fprintf ppf "advance %s" ec
  | Terminate -> Format.fprintf ppf "terminate"

module Prng = struct
  type t = { mutable state : int }

  let create ~seed = { state = (seed * 2 + 1) land 0x3fffffff }

  let next t =
    (* Numerical Recipes LCG constants, 32-bit. *)
    t.state <- ((t.state * 1664525) + 1013904223) land 0xffffffff;
    t.state lsr 8

  let int t bound =
    assert (bound > 0);
    next t mod bound

  let pct t p = int t 100 < p
end

let sequential_write ~seg_reg ~pages =
  Array.init (pages + 1) (fun i ->
      if i < pages then Touch { seg_reg; pageno = i; offset = 0; write = true }
      else Terminate)

let sequential_read ~seg_reg ~pages =
  Array.init (pages + 1) (fun i ->
      if i < pages then Touch { seg_reg; pageno = i; offset = 0; write = false }
      else Terminate)

let random_touches ~seg_reg ~pages ~count ~write_pct ~seed =
  let prng = Prng.create ~seed in
  Array.init (count + 1) (fun i ->
      if i < count then
        Touch
          { seg_reg; pageno = Prng.int prng pages;
            offset = Prng.int prng Multics_hw.Addr.page_size;
            write = Prng.pct prng write_pct }
      else Terminate)

let compute_bound ~steps ~step_ns =
  Array.init (steps + 1) (fun i -> if i < steps then Compute step_ns else Terminate)

let file_churn ~dir ~files ~pages_each ~seed =
  let prng = Prng.create ~seed in
  let buf = ref [] in
  let push a = buf := a :: !buf in
  for i = 0 to files - 1 do
    let fname = Printf.sprintf "churn_%d" i in
    push (Create_file { dir; name = fname });
    push (Initiate { path = dir ^ ">" ^ fname; reg = 0 });
    for p = 0 to pages_each - 1 do
      push (Touch { seg_reg = 0; pageno = p; offset = 0; write = true })
    done;
    push (Terminate_seg { seg_reg = 0 });
    if Prng.pct prng 50 then push (Delete { path = dir ^ ">" ^ fname })
  done;
  push Terminate;
  Array.of_list (List.rev !buf)

let concat programs =
  let actions =
    List.concat_map
      (fun p -> List.filter (fun a -> a <> Terminate) (Array.to_list p))
      programs
  in
  Array.of_list (actions @ [ Terminate ])
