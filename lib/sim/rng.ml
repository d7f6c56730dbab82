(* SplitMix in the 62-bit positive-int domain: good diffusion, no
   dependence on the global Random state. *)
type t = { mutable state : int }

let mask = (1 lsl 62) - 1

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land mask in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land mask in
  z lxor (z lsr 31)

let next t =
  t.state <- (t.state + 0x1E3779B97F4A7C15) land mask;
  mix t.state

let create seed = { state = mix (seed land mask) }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod n

let float t x = float_of_int (next t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53) *. x

let bool t = next t land 1 = 1
