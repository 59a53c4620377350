type region = Ring_zero | Outer_ring | Trusted_process | User_domain

type t = {
  name : string;
  pl1_lines : int;
  asm_lines : int;
  entry_points : int;
  user_entry_points : int;
  region : region;
}

let asm_recoding_factor = 2.27

let source_lines t = t.pl1_lines + t.asm_lines

let pl1_equivalent t =
  t.pl1_lines
  + int_of_float (Float.round (float_of_int t.asm_lines /. asm_recoding_factor))

let in_kernel t = t.region <> User_domain

let recode_in_pl1 t =
  { t with
    pl1_lines =
      t.pl1_lines
      + int_of_float
          (Float.round (float_of_int t.asm_lines /. asm_recoding_factor));
    asm_lines = 0 }

let region_to_string = function
  | Ring_zero -> "ring-0"
  | Outer_ring -> "outer-ring"
  | Trusted_process -> "trusted-process"
  | User_domain -> "user-domain"

let pp ppf t =
  Format.fprintf ppf "%-24s %6d pl1 %6d asm  %4d entries (%3d user) [%s]"
    t.name t.pl1_lines t.asm_lines t.entry_points t.user_entry_points
    (region_to_string t.region)
