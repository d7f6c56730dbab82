(* [(addr lsl 6) lor len]: the address occupies bits 6..37 and the
   length bits 0..5, so integer order is (address, length) order. *)
type t = int

let[@inline] addr p = Ipv4.of_int (p lsr 6)
let[@inline] len p = p land 0x3F
let[@inline] pack a l = (Ipv4.to_int a lsl 6) lor l

let make a l =
  if l < 0 || l > 32 then invalid_arg "Prefix.make: length out of range";
  pack (Ipv4.apply_mask a l) l

let default = pack Ipv4.zero 0

(* Strict decimal length: 1-2 digits, no sign/prefix/underscore (which
   [int_of_string_opt] would otherwise accept, e.g. "0x18", "2_4", "+24"). *)
let length_of_string s =
  let n = String.length s in
  if n < 1 || n > 2 then None
  else
    let digit c = c >= '0' && c <= '9' in
    if not (digit s.[0]) || (n = 2 && not (digit s.[1])) then None
    else
      let v =
        if n = 1 then Char.code s.[0] - Char.code '0'
        else ((Char.code s.[0] - Char.code '0') * 10) + (Char.code s.[1] - Char.code '0')
      in
      Some v

let of_string s =
  match String.index_opt s '/' with
  | None -> Result.map (fun a -> pack a 32) (Ipv4.of_string s)
  | Some i ->
    let astr = String.sub s 0 i in
    let lstr = String.sub s (i + 1) (String.length s - i - 1) in
    (match Ipv4.of_string astr with
    | Error e -> Error e
    | Ok a ->
      (match length_of_string lstr with
      | None -> Error "invalid prefix length"
      | Some l when l > 32 -> Error "prefix length out of range"
      | Some l ->
        if Ipv4.equal (Ipv4.apply_mask a l) a then Ok (pack a l)
        else Error "host bits set below mask"))

let of_string_exn s =
  match of_string s with
  | Ok p -> p
  | Error e -> invalid_arg (Printf.sprintf "Prefix.of_string_exn %S: %s" s e)

let add_to_buffer buf p =
  Ipv4.add_to_buffer buf (addr p);
  Buffer.add_char buf '/';
  Decimal.add_int buf (len p)

let to_string p =
  let buf = Buffer.create 18 in
  add_to_buffer buf p;
  Buffer.contents buf

let pp ppf p = Format.pp_print_string ppf (to_string p)
let compare = Int.compare
let equal = Int.equal
let mem a p = Ipv4.equal (Ipv4.apply_mask a (len p)) (addr p)
let subsumes p q = len p <= len q && mem (addr q) p
let first = addr

let last p =
  Ipv4.of_int
    (Ipv4.to_int (addr p) lor (Ipv4.to_int Ipv4.broadcast lxor Ipv4.to_int (Ipv4.mask (len p))))

let size p = Float.pow 2.0 (float_of_int (32 - len p))

let split p =
  let l = len p in
  if l = 32 then None
  else
    let hi = Ipv4.of_int (Ipv4.to_int (addr p) lor (1 lsl (31 - l))) in
    Some (pack (addr p) (l + 1), pack hi (l + 1))

let bit p i = Ipv4.bit (addr p) i
let hash p = (Ipv4.hash (addr p) * 31) + len p
let wire_octets p = (len p + 7) / 8
