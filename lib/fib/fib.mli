(** The router's forwarding information base (FIB).

    This is the structure the BGP process pushes Loc-RIB changes into
    (via the simulated [xorp_fea] stage) and the forwarding engine
    consults per packet.  It wraps {!Hash_lpm} with next-hop payloads
    and cumulative operation statistics that the router cost model
    converts into simulated CPU cycles.  Every install, replace and
    withdraw is exact-match; only {!lookup} needs longest-prefix
    match. *)

type nexthop = {
  nh_addr : Bgp_addr.Ipv4.t;  (** IP of the neighbor to forward to *)
  nh_port : int;              (** egress interface / peer index *)
}

val pp_nexthop : Format.formatter -> nexthop -> unit
val nexthop_equal : nexthop -> nexthop -> bool

type delta =
  | Add of Bgp_addr.Prefix.t * nexthop
  | Replace of Bgp_addr.Prefix.t * nexthop
  | Withdraw of Bgp_addr.Prefix.t

val pp_delta : Format.formatter -> delta -> unit
val delta_prefix : delta -> Bgp_addr.Prefix.t

type stats = {
  adds : int;
  replaces : int;
  withdraws : int;
  lookups : int;
  (** All cumulative since [create]. *)
}

type t

val create : unit -> t
val size : t -> int
val stats : t -> stats

val apply : t -> delta -> bool
(** Apply one delta.  Returns [false] for a semantic no-op ([Add] of an
    existing identical entry, [Withdraw] of a missing one, [Replace]
    with the same next hop) — the router model charges less for
    those. *)

val apply_all : t -> delta list -> int
(** Number of deltas that changed the table. *)

val lookup : t -> Bgp_addr.Ipv4.t -> (Bgp_addr.Prefix.t * nexthop) option
(** Longest-prefix match (counts toward [lookups] in {!stats}). *)

val iter : (Bgp_addr.Prefix.t -> nexthop -> unit) -> t -> unit
(** In ascending {!Bgp_addr.Prefix.compare} order. *)

val to_list : t -> (Bgp_addr.Prefix.t * nexthop) list
