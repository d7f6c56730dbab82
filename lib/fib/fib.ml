type nexthop = { nh_addr : Bgp_addr.Ipv4.t; nh_port : int }

let pp_nexthop ppf nh =
  Format.fprintf ppf "%a@@port%d" Bgp_addr.Ipv4.pp nh.nh_addr nh.nh_port

let nexthop_equal a b =
  Bgp_addr.Ipv4.equal a.nh_addr b.nh_addr && a.nh_port = b.nh_port

type delta =
  | Add of Bgp_addr.Prefix.t * nexthop
  | Replace of Bgp_addr.Prefix.t * nexthop
  | Withdraw of Bgp_addr.Prefix.t

let pp_delta ppf = function
  | Add (p, nh) -> Format.fprintf ppf "add %a -> %a" Bgp_addr.Prefix.pp p pp_nexthop nh
  | Replace (p, nh) ->
    Format.fprintf ppf "replace %a -> %a" Bgp_addr.Prefix.pp p pp_nexthop nh
  | Withdraw p -> Format.fprintf ppf "withdraw %a" Bgp_addr.Prefix.pp p

let delta_prefix = function Add (p, _) | Replace (p, _) | Withdraw p -> p

type stats = { adds : int; replaces : int; withdraws : int; lookups : int }

type t = {
  tree : nexthop Patricia.t;
  mutable adds : int;
  mutable replaces : int;
  mutable withdraws : int;
  mutable lookups : int;
}

let create () =
  { tree = Patricia.create (); adds = 0; replaces = 0; withdraws = 0; lookups = 0 }

let size t = Patricia.cardinal t.tree

let stats t =
  { adds = t.adds; replaces = t.replaces; withdraws = t.withdraws;
    lookups = t.lookups }

let set t p nh =
  match Patricia.add ~equal:nexthop_equal t.tree p nh with
  | Patricia.Unchanged -> false
  | Patricia.Replaced | Patricia.Added -> true

let apply t = function
  | Add (p, nh) ->
    t.adds <- t.adds + 1;
    set t p nh
  | Replace (p, nh) ->
    t.replaces <- t.replaces + 1;
    set t p nh
  | Withdraw p ->
    t.withdraws <- t.withdraws + 1;
    Patricia.remove t.tree p

let apply_all t deltas =
  List.fold_left (fun n d -> if apply t d then n + 1 else n) 0 deltas

let lookup t a =
  t.lookups <- t.lookups + 1;
  Patricia.lookup t.tree a

let find_exact t p = Patricia.find_exact t.tree p
let iter f t = Patricia.iter f t.tree
let to_list t = Patricia.to_list t.tree
