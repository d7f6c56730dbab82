type segment = Seq of Asn.t list | Set of Asn.t list

type t = segment list

let empty = []

let check_segment = function
  | Seq [] | Set [] -> invalid_arg "As_path: empty segment"
  | Seq l | Set l ->
    if List.length l > 255 then invalid_arg "As_path: segment longer than 255"

let of_segments segs =
  List.iter check_segment segs;
  segs

let segments t = t
let of_asns = function [] -> [] | asns -> of_segments [ Seq asns ]

let length t =
  List.fold_left
    (fun n -> function Seq l -> n + List.length l | Set _ -> n + 1)
    0 t

let prepend a = function
  | Seq l :: rest when List.length l < 255 -> Seq (a :: l) :: rest
  | t -> Seq [ a ] :: t

let rec prepend_n a k t = if k <= 0 then t else prepend_n a (k - 1) (prepend a t)

let contains a t =
  List.exists (function Seq l | Set l -> List.exists (Asn.equal a) l) t

let first_hop = function Seq (a :: _) :: _ -> Some a | _ -> None

let origin_as t =
  let rec last_seq acc = function
    | [] -> acc
    | Seq l :: rest -> last_seq (Some (List.nth l (List.length l - 1))) rest
    | Set _ :: rest -> last_seq acc rest
  in
  last_seq None t

let to_asn_list t = List.concat_map (function Seq l | Set l -> l) t

let seg_equal s1 s2 =
  match s1, s2 with
  | Seq a, Seq b -> List.equal Asn.equal a b
  | Set a, Set b ->
    (* Sets are unordered on the wire; compare as sorted multisets. *)
    List.equal Asn.equal
      (List.sort Asn.compare a)
      (List.sort Asn.compare b)
  | Seq _, Set _ | Set _, Seq _ -> false

let equal a b = List.equal seg_equal a b

let seg_compare s1 s2 =
  match s1, s2 with
  | Seq a, Seq b -> List.compare Asn.compare a b
  | Set a, Set b ->
    List.compare Asn.compare (List.sort Asn.compare a) (List.sort Asn.compare b)
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare a b = List.compare seg_compare a b

(* Items separated by single spaces: no break hints, so [pp] prints
   the same bytes at any width. *)
let rec add_spaced add buf = function
  | [] -> ()
  | [ x ] -> add buf x
  | x :: rest ->
    add buf x;
    Buffer.add_char buf ' ';
    add_spaced add buf rest

let add_asn buf a = Bgp_addr.Decimal.add_int buf (Asn.to_int a)

let add_segment buf = function
  | Seq l -> add_spaced add_asn buf l
  | Set l ->
    Buffer.add_char buf '{';
    add_spaced add_asn buf l;
    Buffer.add_char buf '}'

let add_to_buffer buf = function
  | [] -> Buffer.add_string buf "(empty)"
  | t -> add_spaced add_segment buf t

let pp ppf t =
  let buf = Buffer.create 64 in
  add_to_buffer buf t;
  Format.pp_print_string ppf (Buffer.contents buf)

let hash t =
  List.fold_left
    (fun h seg ->
      let tag, l = match seg with Seq l -> 1, l | Set l -> 2, List.sort Asn.compare l in
      List.fold_left (fun h a -> (h * 31) + Asn.hash a) ((h * 7) + tag) l)
    17 t
