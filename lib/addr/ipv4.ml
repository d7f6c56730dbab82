type t = int

let width = 32
let all_ones = 0xFFFF_FFFF

let of_int n = n land all_ones
let to_int a = a

let of_octets a b c d =
  ((a land 0xFF) lsl 24)
  lor ((b land 0xFF) lsl 16)
  lor ((c land 0xFF) lsl 8)
  lor (d land 0xFF)

let to_octets a =
  ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let zero = 0
let broadcast = all_ones

let of_string s =
  let n = String.length s in
  (* Hand-rolled parser: avoids Scanf (which accepts leading spaces and
     stops silently at garbage) and keeps the error cases explicit. *)
  let rec octet i acc digits =
    if i >= n then Ok (acc, i, digits)
    else
      match s.[i] with
      | '0' .. '9' when digits < 3 ->
        octet (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0')) (digits + 1)
      | '0' .. '9' -> Error "octet too long"
      | '.' -> Ok (acc, i, digits)
      | c -> Error (Printf.sprintf "unexpected character %C" c)
  in
  let rec go i k acc =
    match octet i 0 0 with
    | Error e -> Error e
    | Ok (_, _, 0) -> Error "empty octet"
    | Ok (v, _, _) when v > 255 -> Error "octet out of range"
    | Ok (v, j, _) ->
      let acc = (acc lsl 8) lor v in
      if k = 3 then if j = n then Ok acc else Error "trailing garbage"
      else if j < n && s.[j] = '.' then go (j + 1) (k + 1) acc
      else Error "expected '.'"
  in
  if n = 0 then Error "empty address" else go 0 0 0

let of_string_exn s =
  match of_string s with
  | Ok a -> a
  | Error e -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn %S: %s" s e)

let add_to_buffer buf a =
  Decimal.add_int buf ((a lsr 24) land 0xFF);
  Buffer.add_char buf '.';
  Decimal.add_int buf ((a lsr 16) land 0xFF);
  Buffer.add_char buf '.';
  Decimal.add_int buf ((a lsr 8) land 0xFF);
  Buffer.add_char buf '.';
  Decimal.add_int buf (a land 0xFF)

let to_string a =
  let buf = Buffer.create 15 in
  add_to_buffer buf a;
  Buffer.contents buf

let pp ppf a = Format.pp_print_string ppf (to_string a)
let compare = Int.compare
let equal = Int.equal
let succ a = (a + 1) land all_ones
let add a n = (a + n) land all_ones

let bit a i =
  if i < 0 || i >= width then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (width - 1 - i)) land 1 = 1

let mask len =
  if len < 0 || len > width then invalid_arg "Ipv4.mask: length out of range";
  if len = 0 then 0 else all_ones lxor ((1 lsl (width - len)) - 1)

let apply_mask a len = a land mask len

(* Leading zeros of a non-zero 32-bit value, by binary search.  Top
   level and closure-free: every trie level calls it. *)
let clz32 x =
  let x = ref x and n = ref 0 in
  if !x land 0xFFFF_0000 = 0 then begin n := 16; x := !x lsl 16 end;
  if !x land 0xFF00_0000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
  if !x land 0xF000_0000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
  if !x land 0xC000_0000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
  if !x land 0x8000_0000 = 0 then !n + 1 else !n

let common_prefix_len a b =
  let x = a lxor b in
  if x = 0 then width else clz32 x

let hash a = Hashtbl.hash a
