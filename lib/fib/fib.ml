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
  table : nexthop Hash_lpm.t;
  mutable adds : int;
  mutable replaces : int;
  mutable withdraws : int;
  mutable lookups : int;
}

let create () =
  { table = Hash_lpm.create (); adds = 0; replaces = 0; withdraws = 0; lookups = 0 }

let size t = Hash_lpm.size t.table

let stats t =
  { adds = t.adds; replaces = t.replaces; withdraws = t.withdraws;
    lookups = t.lookups }

let set t p nh =
  match Hash_lpm.add ~equal:nexthop_equal t.table p nh with
  | Hash_lpm.Unchanged -> false
  | Hash_lpm.Replaced | Hash_lpm.Added -> true

let apply t = function
  | Add (p, nh) ->
    t.adds <- t.adds + 1;
    set t p nh
  | Replace (p, nh) ->
    t.replaces <- t.replaces + 1;
    set t p nh
  | Withdraw p ->
    t.withdraws <- t.withdraws + 1;
    Hash_lpm.remove t.table p

let apply_all t deltas =
  List.fold_left (fun n d -> if apply t d then n + 1 else n) 0 deltas

let lookup t a =
  t.lookups <- t.lookups + 1;
  Hash_lpm.lookup t.table a

let iter f t = Hash_lpm.iter f t.table
let to_list t = Hash_lpm.to_list t.table
