module P = Bgp_addr.Prefix
module I = Bgp_addr.Ipv4

(* Invariants:
   - every child's prefix is a strict more-specific of its parent's;
   - a left child's bit at position [parent len] is 0, a right child's 1;
   - a node with no value has two non-empty children (path compression),
     the root included.
   Together they make the shape a function of the stored key set alone,
   whatever sequence of [add]/[remove] produced it. *)
type 'a tree =
  | Empty
  | Node of { pfx : P.t; mutable value : 'a option; mutable l : 'a tree;
              mutable r : 'a tree }

type 'a t = { mutable root : 'a tree; mutable size : int }

type change = Unchanged | Replaced | Added

let create () = { root = Empty; size = 0 }
let is_empty t = t.size = 0
let cardinal t = t.size

let leaf pfx v = Node { pfx; value = Some v; l = Empty; r = Empty }

(* Common prefix length of two prefixes, capped by both lengths. *)
let common p q =
  Int.min (Int.min (P.len p) (P.len q)) (I.common_prefix_len (P.addr p) (P.addr q))

(* [p] sits strictly below a node prefixed [q]. *)
let below p q = P.len p > P.len q && common p q = P.len q

(* Point the slot that held a subtree at [sub]: the root when [parent]
   is [Empty], else the [right]/left child of [parent]. *)
let set_slot t parent right sub =
  match parent with
  | Empty -> t.root <- sub
  | Node n -> if right then n.r <- sub else n.l <- sub

(* The subtree that replaces [tree] when [p] (not inside it) joins it at
   common length [c]: [p] itself above [tree], or a valueless branch
   point over both. *)
let graft p v tree tpfx c =
  if c = P.len p then
    if P.bit tpfx c then Node { pfx = p; value = Some v; l = Empty; r = tree }
    else Node { pfx = p; value = Some v; l = tree; r = Empty }
  else
    let join = P.make (P.addr p) c in
    if P.bit p c then Node { pfx = join; value = None; l = tree; r = leaf p v }
    else Node { pfx = join; value = None; l = leaf p v; r = tree }

(* One descent: [parent]/[right] name the slot holding [tree]. *)
let rec add_at ~equal t p v parent right tree =
  match tree with
  | Empty ->
    set_slot t parent right (leaf p v);
    t.size <- t.size + 1;
    Added
  | Node n ->
    let c = common p n.pfx in
    if c < P.len n.pfx then begin
      set_slot t parent right (graft p v tree n.pfx c);
      t.size <- t.size + 1;
      Added
    end
    else if c = P.len p then (
      match n.value with
      | Some old when equal old v -> Unchanged
      | Some _ ->
        n.value <- Some v;
        Replaced
      | None ->
        n.value <- Some v;
        t.size <- t.size + 1;
        Added)
    else if P.bit p c then add_at ~equal t p v tree true n.r
    else add_at ~equal t p v tree false n.l

let add ~equal t p v = add_at ~equal t p v Empty false t.root

(* [gp]/[gright] name the slot holding [parent], which holds [tree] in
   its [right]/left child. *)
let rec remove_at t p gp gright parent right tree =
  match tree with
  | Empty -> false
  | Node n ->
    if P.equal p n.pfx then (
      match n.value with
      | None -> false
      | Some _ ->
        t.size <- t.size - 1;
        (match n.l, n.r with
        | Node _, Node _ -> n.value <- None
        | (Node _ as child), Empty | Empty, (Node _ as child) ->
          set_slot t parent right child
        | Empty, Empty -> (
          set_slot t parent right Empty;
          (* A valueless parent is left with one child: splice it out. *)
          match parent with
          | Node pn when Option.is_none pn.value ->
            set_slot t gp gright (if right then pn.l else pn.r)
          | _ -> ()));
        true)
    else if below p n.pfx then
      let bit = P.bit p (P.len n.pfx) in
      remove_at t p parent right tree bit (if bit then n.r else n.l)
    else false

let remove t p = remove_at t p Empty false Empty false t.root

let rec find_at p = function
  | Empty -> None
  | Node n ->
    if P.equal p n.pfx then n.value
    else if below p n.pfx then find_at p (if P.bit p (P.len n.pfx) then n.r else n.l)
    else None

let find_exact t p = find_at p t.root

let lookup t a =
  let rec go best = function
    | Empty -> best
    | Node n ->
      if not (P.mem a n.pfx) then best
      else
        let best = match n.value with Some v -> Some (n.pfx, v) | None -> best in
        if P.len n.pfx = 32 then best
        else go best (if I.bit a (P.len n.pfx) then n.r else n.l)
  in
  go None t.root

let fold f t acc =
  let rec go tree acc =
    match tree with
    | Empty -> acc
    | Node n ->
      let acc = match n.value with Some v -> f n.pfx v acc | None -> acc in
      go n.r (go n.l acc)
  in
  go t.root acc

let iter f t = fold (fun p v () -> f p v) t ()
let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go ~parent tree =
    match tree with
    | Empty -> Ok 0
    | Node n ->
      let bad_child =
        match parent with
        | None -> None
        | Some (ppfx, expect_bit) ->
          if not (P.subsumes ppfx n.pfx) || P.len n.pfx <= P.len ppfx then
            Some "child not strictly inside parent"
          else if P.bit n.pfx (P.len ppfx) <> expect_bit then
            Some "child on wrong side"
          else None
      in
      (match bad_child with
      | Some msg -> fail "%s at %s" msg (P.to_string n.pfx)
      | None ->
        if Option.is_none n.value && (n.l = Empty || n.r = Empty) then
          fail "collapsible valueless node at %s" (P.to_string n.pfx)
        else
          Result.bind (go ~parent:(Some (n.pfx, false)) n.l) (fun nl ->
              Result.map
                (fun nr -> nl + nr + Option.fold ~none:0 ~some:(fun _ -> 1) n.value)
                (go ~parent:(Some (n.pfx, true)) n.r)))
  in
  Result.bind (go ~parent:None t.root) (fun n ->
      if n = t.size then Ok ()
      else fail "size counter %d but %d stored values" t.size n)
