module P = Bgp_addr.Prefix
module X = Bgp_addr.Prefix_index

type 'a t = {
  index : X.t;
  mutable values : 'a array;  (* id -> value; [X.capacity index] long *)
  counts : int array;  (* [counts.(l)]: stored prefixes of length [l] *)
}

type change = Unchanged | Replaced | Added

(* The index never shrinks, so a withdraw allocates nothing. *)
let create () = { index = X.create (); values = [||]; counts = Array.make 33 0 }
let size t = X.size t.index

let add ~equal t p v =
  let n = X.size t.index in
  let id = X.add t.index p in
  if id < n then
    if equal t.values.(id) v then Unchanged
    else begin
      t.values.(id) <- v;
      Replaced
    end
  else begin
    let cap = X.capacity t.index in
    if Array.length t.values <> cap then begin
      (* The new value fills the fresh tail; no slot past [size] is
         ever read. *)
      let values = Array.make cap v in
      Array.blit t.values 0 values 0 n;
      t.values <- values
    end;
    t.values.(id) <- v;
    let l = P.len p in
    t.counts.(l) <- t.counts.(l) + 1;
    Added
  end

let remove t p =
  let id = X.remove t.index p in
  id >= 0
  && begin
    (* The member that held the last id now holds [id]. *)
    t.values.(id) <- t.values.(X.size t.index);
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
      let id = X.find t.index p in
      if id >= 0 then Some (p, t.values.(id)) else go (l - 1)
  in
  go 32

(* The stored ids in ascending prefix order, so that walks do not
   depend on probe order or on the history of updates. *)
let sorted_ids t =
  let ids = Array.init (X.size t.index) Fun.id in
  Array.sort (fun i j -> P.compare (X.key t.index i) (X.key t.index j)) ids;
  ids

let iter f t =
  Array.iter (fun id -> f (X.key t.index id) t.values.(id)) (sorted_ids t)

let to_list t =
  Array.fold_right
    (fun id acc -> (X.key t.index id, t.values.(id)) :: acc)
    (sorted_ids t) []
