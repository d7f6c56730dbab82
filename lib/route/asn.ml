type t = int

let of_int_opt n = if n >= 0 && n <= 0xFFFF then Some n else None

let of_int n =
  match of_int_opt n with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Asn.of_int: %d out of 16-bit range" n)

let to_int a = a
let compare = Int.compare
let equal = Int.equal
let pp ppf a = Format.fprintf ppf "AS%d" a
let hash a = a
let reserved = 0
let is_private a = a >= 64512 && a <= 65534
