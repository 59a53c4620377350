let n_buckets = 62

type t = {
  h_name : string;
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable max_v : int;
}

let create ~name =
  { h_name = name; counts = Array.make n_buckets 0; count = 0; sum = 0;
    max_v = 0 }

let name t = t.h_name

(* Index of the highest set bit; 0 and 1 share bucket 0 so a log2
   sketch never needs a special zero row. *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b (n_buckets - 1)
  end

let bucket_lo i = if i = 0 then 0 else 1 lsl i
let bucket_hi i = (1 lsl (i + 1)) - 1

let add t v =
  let v = max 0 v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let max_value t = t.max_v

let percentile t ~pct =
  if t.count = 0 then 0
  else begin
    let pct = max 1 (min 100 pct) in
    (* Rank of the requested percentile, rounding up so p100 = max. *)
    let target = ((t.count * pct) + 99) / 100 in
    let rec walk i acc =
      if i >= n_buckets then t.max_v
      else
        let acc = acc + t.counts.(i) in
        if acc >= target then min (bucket_hi i) t.max_v else walk (i + 1) acc
    in
    walk 0 0
  end

let buckets t =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      out := (bucket_lo i, bucket_hi i, t.counts.(i)) :: !out
  done;
  !out

let pp ppf t =
  Format.fprintf ppf "%-28s %8d samples  p50 %10d  p95 %10d  max %10d"
    t.h_name t.count (percentile t ~pct:50) (percentile t ~pct:95) t.max_v
