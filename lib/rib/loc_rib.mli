(** The Loc-RIB: routes selected by the local speaker's decision
    process (RFC 4271 §3.2).  One best route per prefix, with the
    source peer retained so re-advertisement and split-horizon
    filtering can consult it.

    A Loc-RIB is the read-only view of a {!Rib_manager}'s prefix table:
    one entry per prefix that holds the best route next to the locally
    originated route and every peer's Adj-RIB-In and Adj-RIB-Out
    handle, so the manager reaches all of a prefix's state with one
    probe.  Only {!Rib_manager} writes it.

    Note (paper §III.A): the Loc-RIB is distinct from the forwarding
    table — changes here are pushed into {!Bgp_fib.Fib} by a separate
    (and separately costed) step. *)

type t = Prefix_table.t

val find : t -> Bgp_addr.Prefix.t -> Bgp_route.Route.t option
val size : t -> int
val iter : (Bgp_route.Route.t -> unit) -> t -> unit
(** In no particular order (the table's internal one). *)

val fold : (Bgp_route.Route.t -> 'a -> 'a) -> t -> 'a -> 'a
(** In no particular order (the table's internal one). *)

val to_list : t -> Bgp_route.Route.t list
(** Sorted by prefix — dumps and fingerprints do not depend on the
    table's internal order.  Costs one radix sort of an int array of
    the table's entries, keyed by prefix; no list is sorted. *)

val fingerprint : t -> string
(** Hex MD5 digest over the prefix-sorted dump, one line per route:
    [prefix|as_path|next_hop|origin|med|local_pref\n], with the path
    as {!Bgp_route.As_path.pp} prints it ([(empty)] when empty, [{...}]
    around an AS_SET) and [-] for an absent MED or LOCAL_PREF.  Stable
    across runs and across execution modes: a simulated run and a live
    (loopback TCP) run of the same scenario must produce equal
    fingerprints — the sim-vs-live cross-validation invariant.

    Cost: the same radix sort as {!to_list}, then every line is written
    straight into one buffer pre-sized for the table (digits by hand;
    no [Format], [Printf] or per-line string), and that buffer is
    hashed once. *)
