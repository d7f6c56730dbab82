(* The one routing table of a {!Rib_manager}: an entry per prefix
   holding the Loc-RIB best, the locally originated route and every
   peer's Adj-RIB-In and Adj-RIB-Out handle, so a single hash lookup
   reaches all of a prefix's routing state.  Private to the library:
   elsewhere the table is read through {!Loc_rib} only. *)

module R = Bgp_route.Route
module I = Bgp_route.Attrs.Interned

module H = Hashtbl.Make (struct
  type t = Bgp_addr.Prefix.t

  let equal = Bgp_addr.Prefix.equal
  let hash = Bgp_addr.Prefix.hash
end)

(* Empty fields hold sentinels rather than options, so an entry costs
   no box per slot. *)
type entry = {
  mutable best : R.t;  (* the Loc-RIB route; [no_route] when none *)
  mutable local : I.t;  (* locally originated; [I.none] when none *)
  mutable slots : I.t array;
      (* [2s]: Adj-RIB-In, [2s+1]: Adj-RIB-Out of the peer in slot [s];
         [I.none] when empty.  Entries made before a late peer was added
         are shorter and grow on the first write to that peer's pair. *)
}

type t = { entries : entry H.t; mutable routes : int (* entries with a best *) }

let no_route =
  R.of_interned ~prefix:Bgp_addr.Prefix.default ~interned:I.none
    ~from:Bgp_route.Peer.local

(* What [find] returns for a prefix without an entry: every field
   empty.  Only ever read — writers go through [find_or_add]. *)
let absent = { best = no_route; local = I.none; slots = [||] }

let create () = { entries = H.create 16; routes = 0 }
let find t p = try H.find t.entries p with Not_found -> absent

let find_or_add t p ~width =
  try H.find t.entries p
  with Not_found ->
    let e = { best = no_route; local = I.none; slots = Array.make width I.none } in
    H.add t.entries p e;
    e

let slot e i =
  if i < Array.length e.slots then Array.unsafe_get e.slots i else I.none

let set_slot e i h ~width =
  assert (e != absent);
  if i >= Array.length e.slots then begin
    let grown = Array.make width I.none in
    Array.blit e.slots 0 grown 0 (Array.length e.slots);
    e.slots <- grown
  end;
  e.slots.(i) <- h

(* Only on an occupied slot, which always lies within the array. *)
let clear_slot e i = e.slots.(i) <- I.none

let set_best t e r =
  if e.best == no_route then begin
    t.routes <- t.routes + 1;
    e.best <- r;
    `New
  end
  else if R.equal e.best r then `Unchanged
  else begin
    e.best <- r;
    `Changed
  end

let clear_best t e =
  e.best != no_route
  && begin
    t.routes <- t.routes - 1;
    e.best <- no_route;
    true
  end

let is_empty e =
  e.best == no_route && e.local == I.none
  && Array.for_all (fun h -> h == I.none) e.slots

(* Reclaim an entry left with no route of any kind. *)
let remove_if_empty t p e = if is_empty e then H.remove t.entries p

let iter f t = H.iter f t.entries
let fold f t acc = H.fold f t.entries acc
