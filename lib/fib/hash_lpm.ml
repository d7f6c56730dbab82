module P = Bgp_addr.Prefix

module H = Hashtbl.Make (struct
  type t = P.t

  let equal = P.equal
  let hash = P.hash
end)

type 'a t = {
  table : 'a H.t;
  counts : int array;  (* [counts.(l)]: stored prefixes of length [l] *)
}

type change = Unchanged | Replaced | Added

let create () = { table = H.create 16; counts = Array.make 33 0 }
let size t = H.length t.table

let add ~equal t p v =
  match H.find t.table p with
  | old ->
    if equal old v then Unchanged
    else begin
      (* Overwrites the binding in place: no allocation. *)
      H.replace t.table p v;
      Replaced
    end
  | exception Not_found ->
    H.add t.table p v;
    let l = P.len p in
    t.counts.(l) <- t.counts.(l) + 1;
    Added

let remove t p =
  H.mem t.table p
  && begin
    H.remove t.table p;
    let l = P.len p in
    t.counts.(l) <- t.counts.(l) - 1;
    true
  end

let lookup t a =
  let rec go l =
    if l < 0 then None
    else if t.counts.(l) = 0 then go (l - 1)
    else
      let p = P.make a l in
      match H.find t.table p with
      | v -> Some (p, v)
      | exception Not_found -> go (l - 1)
  in
  go 32

(* The stored prefixes in ascending order, so that walks do not depend
   on hash order or on the history of updates. *)
let sorted_keys t =
  let keys = Array.make (H.length t.table) P.default in
  let i = ref 0 in
  H.iter
    (fun p _ ->
      keys.(!i) <- p;
      incr i)
    t.table;
  Array.sort P.compare keys;
  keys

let iter f t = Array.iter (fun p -> f p (H.find t.table p)) (sorted_keys t)

let to_list t =
  Array.fold_right (fun p acc -> (p, H.find t.table p) :: acc) (sorted_keys t) []
