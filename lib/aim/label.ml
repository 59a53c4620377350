type t = { level : Level.t; compartments : Compartment.t }

let make level compartments = { level; compartments }
let system_low = { level = Level.bottom; compartments = Compartment.empty }

let dominates a b =
  Level.compare a.level b.level >= 0
  && Compartment.subset b.compartments a.compartments

let equal a b =
  Level.compare a.level b.level = 0
  && Compartment.equal a.compartments b.compartments

let lub a b =
  { level = Level.max_level a.level b.level;
    compartments = Compartment.union a.compartments b.compartments }

let glb a b =
  { level = Level.min_level a.level b.level;
    compartments = Compartment.inter a.compartments b.compartments }

let comparable a b = dominates a b || dominates b a

let encode t =
  (Level.to_int t.level lsl Compartment.max_compartments)
  lor Compartment.to_int t.compartments

let decode i =
  { level = Level.of_int (i lsr Compartment.max_compartments land 7);
    compartments = Compartment.of_int i }

let pp ppf t =
  Format.fprintf ppf "%a%a" Level.pp t.level Compartment.pp t.compartments

let to_string t = Format.asprintf "%a" pp t
