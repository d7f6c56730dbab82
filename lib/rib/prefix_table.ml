(* The one routing table of a {!Rib_manager}: per prefix, the Loc-RIB
   best, the locally originated route and every peer's Adj-RIB-In and
   Adj-RIB-Out handle, so a single probe reaches all of a prefix's
   routing state.  Private to the library: elsewhere the table is read
   through {!Loc_rib} only.

   A {!Bgp_addr.Prefix_index} numbers the prefixes densely and the
   payload lives in two flat arrays indexed by that id: the best routes,
   and the handles at [stride] words per entry.  An entry is its id: it
   stays valid across inserts and until the next removal, which moves
   the last entry into the freed id. *)

module R = Bgp_route.Route
module I = Bgp_route.Attrs.Interned
module X = Bgp_addr.Prefix_index

type entry = int

type t = {
  index : X.t;
  mutable best : R.t array;  (* id -> the Loc-RIB route; [no_route] when none *)
  mutable handles : I.t array;
      (* [stride * id]: the local route; [stride * id + 1 + 2s] and
         [+ 2 + 2s]: the Adj-RIB-In and Adj-RIB-Out of the peer in slot
         [s].  [I.none] when empty. *)
  mutable stride : int;  (* 1 + two per peer *)
  mutable routes : int;  (* entries with a best *)
}

(* Empty fields hold sentinels rather than options, so an entry costs
   no box per field.  Payload past the last id is always empty, so a
   fresh id starts empty. *)
let no_route =
  R.of_interned ~prefix:Bgp_addr.Prefix.default ~interned:I.none
    ~from:Bgp_route.Peer.local

let create () =
  { index = X.create ~shrink:true (); best = [||]; handles = [||]; stride = 1;
    routes = 0 }

(* Reallocate the payload arrays to the index's capacity, copying the
   entries; [old_stride] is the layout of the current handle array. *)
let relayout t ~old_stride =
  let cap = X.capacity t.index and n = X.size t.index in
  let best = Array.make cap no_route in
  Array.blit t.best 0 best 0 (min n (Array.length t.best));
  let handles = Array.make (cap * t.stride) I.none in
  let width = min old_stride t.stride in
  for id = 0 to min n (Array.length t.handles / old_stride) - 1 do
    Array.blit t.handles (id * old_stride) handles (id * t.stride) width
  done;
  t.best <- best;
  t.handles <- handles

(* Bring the payload arrays to the index's capacity after an insert or
   a removal resized it, or after a lazy re-stride. *)
let fit t =
  let cap = X.capacity t.index in
  if Array.length t.best <> cap || Array.length t.handles <> cap * t.stride then
    relayout t ~old_stride:t.stride

(* Room for [peers] slot pairs per entry.  An empty table only records
   the stride: its arrays are allocated by the first insert, so the many
   routers of a topology that register peers before any route pay
   nothing per peer. *)
let set_peers t peers =
  let stride = 1 + (2 * peers) in
  if stride <> t.stride then begin
    let old_stride = t.stride in
    t.stride <- stride;
    if X.size t.index = 0 then t.handles <- [||]
    else relayout t ~old_stride
  end

(* [-1] for a prefix without an entry; every read of it is empty. *)
let find t p = X.find t.index p

let find_or_add t p =
  let e = X.add t.index p in
  fit t;
  e

let prefix t e = X.key t.index e
let best t e = if e < 0 then no_route else Array.unsafe_get t.best e

let local t e =
  if e < 0 then I.none else Array.unsafe_get t.handles (e * t.stride)

let set_local t e h =
  assert (e >= 0);
  t.handles.(e * t.stride) <- h

let slot t e i =
  if e < 0 then I.none else Array.unsafe_get t.handles ((e * t.stride) + 1 + i)

let set_slot t e i h =
  assert (e >= 0);
  t.handles.((e * t.stride) + 1 + i) <- h

let clear_slot t e i = set_slot t e i I.none

let set_best t e r =
  if t.best.(e) == no_route then t.routes <- t.routes + 1;
  t.best.(e) <- r

let clear_best t e =
  e >= 0
  && t.best.(e) != no_route
  && begin
    t.routes <- t.routes - 1;
    t.best.(e) <- no_route;
    true
  end

let rec none_from handles i stop =
  i = stop || (handles.(i) == I.none && none_from handles (i + 1) stop)

let is_empty t e =
  best t e == no_route
  && none_from t.handles (e * t.stride) ((e + 1) * t.stride)

(* Reclaim an entry left with no route of any kind.  The last entry
   moves into its id, and the table shrinks when it gets sparse. *)
let remove_if_empty t e =
  if e >= 0 && is_empty t e then begin
    let id = X.remove t.index (X.key t.index e) in
    let last = X.size t.index in
    if id <> last then begin
      t.best.(id) <- t.best.(last);
      Array.blit t.handles (last * t.stride) t.handles (id * t.stride) t.stride
    end;
    t.best.(last) <- no_route;
    Array.fill t.handles (last * t.stride) t.stride I.none;
    fit t
  end

(* In id order.  [f] may write to entries but must not insert or remove
   one. *)
let fold f t acc =
  let acc = ref acc in
  for e = 0 to X.size t.index - 1 do
    acc := f e !acc
  done;
  !acc

let iter f t = fold (fun e () -> f e) t ()

(* The ids of every entry in prefix order ({!Bgp_addr.Prefix.compare},
   the integer order of the packed prefixes, which fit in 40 bits): a
   least-significant-digit radix sort of the ids on their keys, five
   stable passes of one byte each.  No comparison closure and no list:
   at 100k entries it takes about an eighth of the time of
   [Array.stable_sort] on the keys, which would make an ordered walk
   cost more than sorting its output afterwards.  The ids are valid
   until the next insert or removal. *)
let ordered t =
  let n = X.size t.index in
  let count = Array.make 257 0 in
  let pass (src, dst) shift =
    let digit id = ((X.key t.index id :> int) lsr shift) land 0xFF in
    Array.fill count 0 257 0;
    Array.iter (fun id -> let d = digit id + 1 in count.(d) <- count.(d) + 1) src;
    for d = 1 to 255 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    Array.iter
      (fun id ->
        let d = digit id in
        dst.(count.(d)) <- id;
        count.(d) <- count.(d) + 1)
      src;
    (dst, src)
  in
  fst (List.fold_left pass (Array.init n Fun.id, Array.make n 0) [ 0; 8; 16; 24; 32 ])

(* [f e] for every entry, in id order, and its [Some] results listed
   in prefix order.  [f] walks the table in its memory order, which a
   walk that reads each entry's routes needs to stay cache-friendly;
   only the results are visited in prefix order.  [f] may write to
   entries but must not insert or remove one. *)
let filter_map_ordered t f =
  let out = Array.init (X.size t.index) f in
  Array.fold_right
    (fun e acc -> match out.(e) with Some x -> x :: acc | None -> acc)
    (ordered t) []
