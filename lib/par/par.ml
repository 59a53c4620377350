let available () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "MULTICS_DOMAINS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> 1)

(* Block boundaries: domain [d] of [D] owns [lo d, lo (d+1)).  Using
   the rounded product keeps the blocks within one task of each other
   in size, and the assignment a pure function of (n, D, d). *)
let block_lo ~tasks ~domains d = d * tasks / domains

(* One worker: fill the owned slots, trapping per-task exceptions so a
   failure in one block never prevents the others from completing (the
   caller re-raises deterministically afterwards). *)
let fill results f ~lo ~hi =
  for i = lo to hi - 1 do
    results.(i) <-
      (match f i with
      | v -> Some (Ok v)
      | exception e -> Some (Error e))
  done

let run ?(domains = 1) ~tasks f =
  if tasks < 0 then invalid_arg "Par.run: negative task count";
  if tasks = 0 then [||]
  else begin
    let domains = max 1 (min domains tasks) in
    let results = Array.make tasks None in
    if domains = 1 then fill results f ~lo:0 ~hi:tasks
    else begin
      (* Shards 1..D-1 on spawned domains, shard 0 inline on the
         calling domain; unconditional joins publish every slot before
         the merge below reads them. *)
      let workers =
        List.init (domains - 1) (fun j ->
            let d = j + 1 in
            let lo = block_lo ~tasks ~domains d
            and hi = block_lo ~tasks ~domains (d + 1) in
            Domain.spawn (fun () -> fill results f ~lo ~hi))
      in
      fill results f ~lo:0 ~hi:(block_lo ~tasks ~domains 1);
      List.iter Domain.join workers
    end;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every block was filled or raised *))
      results
  end
