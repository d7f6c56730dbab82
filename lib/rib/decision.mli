(** The BGP decision process (RFC 4271 §9.1): choose, per prefix, the
    single most preferred route among all Adj-RIB-In candidates.

    The ranking implemented here is the de-facto standard sequence the
    paper alludes to ("most vendors implement best path selection based
    on the length of AS path"):

    + locally originated routes win outright;
    + highest LOCAL_PREF (absent treated as {!default_local_pref});
    + shortest AS path ({!Bgp_route.As_path.length}, sets count 1);
    + lowest ORIGIN (IGP < EGP < INCOMPLETE);
    + lowest MED, compared only between routes from the same
      neighboring AS (absent treated as 0, i.e. best);
    + EBGP-learned preferred over IBGP-learned;
    + lowest BGP identifier: the route's ORIGINATOR_ID when it carries
      one, else the advertising peer's (RFC 4456 §9);
    + shortest CLUSTER_LIST (RFC 4456 §9);
    + lowest peer address (final deterministic tie-break). *)

val default_local_pref : int
(** 100, the customary default. *)

type rule =
  | Local_origin
  | Local_pref
  | Path_length
  | Origin
  | Med
  | Ebgp_over_ibgp
  | Router_id
  | Cluster_list
  | Peer_address
  | Identical

val pp_rule : Format.formatter -> rule -> unit

val compare_routes :
  local_asn:Bgp_route.Asn.t -> Bgp_route.Route.t -> Bgp_route.Route.t ->
  int * rule
(** [(c, rule)] where [c > 0] iff the first route is preferred and
    [rule] names the step that discriminated ([Identical] when the
    routes tie through every step, which implies [c = 0]). *)

val better :
  local_asn:Bgp_route.Asn.t -> Bgp_route.Route.t -> Bgp_route.Route.t -> bool

val better_handle :
  local_asn:Bgp_route.Asn.t ->
  Bgp_route.Attrs.Interned.t -> Bgp_route.Peer.t ->
  Bgp_route.Attrs.Interned.t -> Bgp_route.Peer.t ->
  bool
(** [better_handle ~local_asn ha fa hb fb] is {!better} on the routes
    with attributes [ha] from [fa] and [hb] from [fb], without building
    them: the same rule chain, and it allocates nothing.  The prefix
    plays no part in the ranking. *)

val select :
  local_asn:Bgp_route.Asn.t -> Bgp_route.Route.t list ->
  Bgp_route.Route.t option
(** Best of the candidates, or [None] for an empty list.

    Precondition: candidates are in stable source-peer order
    ({!Bgp_route.Peer.compare}: local routes first, then ascending peer
    id; at most one candidate per peer).  Because the ranking is not a
    total order (MED comparability depends on the pair), the left fold
    is order-dependent; presenting the candidates in one fixed order is
    what keeps selection independent of update arrival order.
    {!Bgp_rib.Rib_manager} runs this same left fold in place over its
    stored handles with {!better_handle}, in exactly this order; this
    list form is its reference. *)
