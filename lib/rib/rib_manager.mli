(** The three-RIB update engine: Adj-RIBs-In -> (import policy) ->
    decision process -> Loc-RIB -> FIB deltas + (export policy) ->
    Adj-RIBs-Out -> announcements (RFC 4271 §9).

    This module is {e pure protocol logic} — it knows nothing about
    time, scheduling, or cost.  Every {!update} returns an {!outcome}
    that (a) tells the caller what to transmit and what to install in
    the FIB, and (b) carries work counters that the simulated router
    converts into CPU cycles.

    {b One entry per prefix.}  All three RIBs live in one prefix-keyed
    table (read outside this library as {!Loc_rib}): a
    {!Bgp_addr.Prefix_index} numbers the prefixes densely, and flat
    arrays indexed by that number hold the Loc-RIB best, the locally
    originated handle and, for the peer registered [s]-th, its
    Adj-RIB-In and Adj-RIB-Out handles.  Empty fields hold
    {!Bgp_route.Attrs.Interned.none}, so a field costs one word and no
    box, and one probe reaches a prefix's whole state.  The table
    starts small, grows with the routes and shrinks when sparse; an
    entry left with no best, no local route and no occupied slot is
    removed.

    {b The decision in place.}  A decision runs {!Decision.select}'s
    left fold over the stored handles ({!Decision.better_handle}) and
    builds a route only for a winner that differs from the stored best,
    which is kept when equal.  With accept-all policies, an update that
    changes nothing past the Adj-RIB-In allocates nothing: its outcome
    is a shared immutable value.

    {b Export memo.}  The plain EBGP rewrite (prepend the local AS,
    next-hop-self, drop LOCAL_PREF and MED) depends only on the
    post-export-policy attributes, so it is memoised per manager, keyed
    by that handle.  The memo is invisible to everything else: a hit is
    admitted only when {!Bgp_route.Attrs.Interned.intern} would have
    returned the same handle, and counts in the arena stats exactly as
    that intern hit would, and no handle from before an
    {!Bgp_route.Attrs.Interned.clear} is ever served after it.
    Route-reflection rewrites are not cached. *)

type t

(** A configured route aggregate (RFC 4271 section 9.2.2.2, CIDR).
    When any strictly-more-specific route is selected into the Loc-RIB,
    the router originates the aggregate locally. *)
type aggregate_config = {
  agg_prefix : Bgp_addr.Prefix.t;
  agg_as_set : bool;
      (** carry contributor ASes in an AS_SET (loop-safe aggregation);
          otherwise the aggregate has an empty path and sets
          ATOMIC_AGGREGATE when path information was dropped *)
  agg_summary_only : bool;
      (** suppress advertisement of the more-specifics while the
          aggregate is active *)
}

val create :
  ?import:Bgp_policy.Policy.t ->
  ?export:Bgp_policy.Policy.t ->
  ?aggregates:aggregate_config list ->
  ?metrics:Bgp_stats.Metrics.t ->
  ?incremental:bool ->
  local_asn:Bgp_route.Asn.t ->
  router_id:Bgp_addr.Ipv4.t ->
  unit ->
  t
(** [import]/[export] are default policies for peers added without
    per-peer overrides (both default to accept-all).  [router_id] also
    identifies this router's reflection cluster when peers are added
    with [~rr_client:true].

    [metrics] is the registry the work counters ([rib.*]) register
    into, shared with the owning router so one
    {!Bgp_stats.Metrics.reset_all} clears all accounting together; by
    default the manager keeps a private registry.

    [incremental] (default true) enables the best-vs-challenger fast
    path: an update from peer [p] skips the full candidate rescan when
    the current Loc-RIB best comes from a strictly earlier source in
    decision order ({!Bgp_route.Peer.compare}) and the post-import
    challenger does not beat it (withdraws of losing routes skip
    unconditionally).  Because {!Decision.select} is a left fold in
    that same source order, the fast path is observationally equivalent
    to full re-selection — [~incremental:false] exists so tests can
    check that equivalence differentially.
    @raise Invalid_argument if [metrics] already holds [rib.*] names
    (one registry backs at most one manager). *)

val local_asn : t -> Bgp_route.Asn.t
val router_id : t -> Bgp_addr.Ipv4.t

val add_peer :
  ?import:Bgp_policy.Policy.t -> ?export:Bgp_policy.Policy.t ->
  ?rr_client:bool -> ?up:bool -> t -> Bgp_route.Peer.t -> unit
(** [rr_client] (default false) marks an IBGP peer as a
    route-reflection client (RFC 4456): the router reflects routes
    between clients and the rest of the IBGP mesh, stamping
    ORIGINATOR_ID and growing CLUSTER_LIST.  Without reflection, IBGP
    routes are never re-advertised to IBGP peers (RFC 4271 §9.2).

    [up] (default true) marks the peer as advertisable; a router
    normally registers peers with [~up:false] and flips them with
    {!set_peer_up} when the session reaches Established.

    The peer gets the next free slot pair in the prefix table.  A peer
    may be added after routes exist: the table then re-strides its
    entries (an empty table only records the new width).  Decisions
    still walk the peers in {!Bgp_route.Peer.compare} order, whatever
    the slots.
    @raise Invalid_argument if the peer id is already registered or the
    peer is {!Bgp_route.Peer.local}. *)

val set_peer_up : t -> Bgp_route.Peer.t -> bool -> unit
(** Enable/disable advertisement to a registered peer.  Down peers are
    skipped by the export step of every decision ({!announce},
    {!withdraw}); their Adj-RIB-Out is only mutated by {!export_full}
    and {!peer_down}. *)

val rebind_peer : t -> Bgp_route.Peer.t -> unit
(** Replace the identity (AS, BGP identifier, address) of the
    registered peer with [peer]'s id — a session learned it from the
    neighbor's OPEN.  Ordering is unchanged ({!Bgp_route.Peer.compare}
    is by id).
    @raise Invalid_argument for an unregistered peer, or one whose
    Adj-RIB-In or Adj-RIB-Out is not empty. *)

val peer_count : t -> int
(** Registered peers, up or down. *)

val loc_rib : t -> Loc_rib.t
val adj_in_size : t -> Bgp_route.Peer.t -> int
val adj_out_size : t -> Bgp_route.Peer.t -> int

val projected_adj_in_size :
  t ->
  Bgp_route.Peer.t ->
  announced:Bgp_addr.Prefix.t list ->
  withdrawn:Bgp_addr.Prefix.t list ->
  int
(** The Adj-RIB-In size the peer's table would have {e after} an UPDATE
    carrying [announced] NLRI and [withdrawn] routes, without applying
    it: current size, plus announced prefixes not already held
    (duplicates within the NLRI counted once), minus withdrawn prefixes
    actually held and not re-announced by the same message.  This is
    what a prefix limit must compare against — counting raw NLRI length
    double-counts re-announcements, so a peer refreshing its existing
    routes would falsely trip the limit.
    @raise Invalid_argument for an unregistered peer. *)

(** One item the router must send to a neighbor.  The attributes are an
    interned handle, so the router's UPDATE packing and MRAI grouping
    key on the arena id instead of hashing structures. *)
type announcement = {
  dest : Bgp_route.Peer.t;
  ann_prefix : Bgp_addr.Prefix.t;
  ann_attrs : Bgp_route.Attrs.Interned.t option;  (** [None] = withdraw *)
}

val pp_announcement : Format.formatter -> announcement -> unit

type outcome = {
  adj_in_change : [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ];
      (** What happened in the source Adj-RIB-In. [`Loop] means the
          announcement was rejected by AS-loop detection (and any
          previous route from that peer removed). *)
  loc_changed : bool;
  fib_deltas : Bgp_fib.Fib.delta list;
  announcements : announcement list;
  candidates : int;  (** routes considered by the decision process *)
}

val announce :
  t -> from:Bgp_route.Peer.t -> Bgp_addr.Prefix.t -> Bgp_route.Attrs.t ->
  outcome
(** Process one announced prefix from a neighbor (interns the
    attributes first; see {!announce_interned}).
    @raise Invalid_argument for an unregistered peer. *)

val announce_interned :
  t -> from:Bgp_route.Peer.t -> Bgp_addr.Prefix.t ->
  Bgp_route.Attrs.Interned.t -> outcome
(** Like {!announce} from an existing handle — no arena lookup. *)

val announce_group :
  t ->
  from:Bgp_route.Peer.t ->
  each:(Bgp_addr.Prefix.t -> outcome -> unit) ->
  Bgp_addr.Prefix.t list ->
  Bgp_route.Attrs.Interned.t ->
  unit
(** The attr-group batched path: process every NLRI prefix of one
    UPDATE against its single shared attribute handle.  Per-prefix
    outcomes (and their work counters) are identical to calling
    {!announce_interned} in sequence; the AS-loop and reflection-loop
    guards, which depend only on the attributes, run once per group.
    [each] observes each prefix's outcome in NLRI order. *)

val withdraw : t -> from:Bgp_route.Peer.t -> Bgp_addr.Prefix.t -> outcome
(** Process one withdrawn prefix from a neighbor. *)

val inject_local :
  t -> prefix:Bgp_addr.Prefix.t -> next_hop:Bgp_addr.Ipv4.t -> outcome
(** Originate a route locally (it wins every decision). *)

val inject_local_route :
  t -> prefix:Bgp_addr.Prefix.t -> attrs:Bgp_route.Attrs.t -> outcome
(** Originate a route locally with explicit attributes (e.g. when
    replaying a saved table through a route server). *)

val withdraw_local : t -> prefix:Bgp_addr.Prefix.t -> outcome
(** Remove a locally originated route. *)

val export_full : t -> Bgp_route.Peer.t -> announcement list
(** Initial table sync to a newly Established peer: computes and
    records the full Adj-RIB-Out for that peer and returns the
    corresponding announcements (Phase 2 of the benchmark).  Announces
    nothing for prefixes whose best route came from that same peer. *)

val refresh : t -> Bgp_route.Peer.t -> announcement list
(** RFC 2918 route refresh: drop the peer's Adj-RIB-Out bookkeeping and
    recompute + resend the full advertisement set. *)

val peer_down : t -> Bgp_route.Peer.t -> outcome
(** Session loss: mark the peer down, flush its Adj-RIB-In and Adj-RIB-Out and
    re-run the decision process for every prefix it contributed.  The
    returned outcome aggregates all resulting deltas/announcements. *)

val check_invariants : t -> unit
(** Check the prefix table against the manager's own bookkeeping: no
    empty entry is left behind, the Loc-RIB size and every peer's
    Adj-RIB-In/Out sizes match the occupied entries and slots, and each
    best route sits under its own prefix.  O(table); for tests.
    @raise Failure naming the first broken invariant. *)

(** Cumulative work statistics (for the cost model and EXPERIMENTS). *)
type stats = {
  updates_processed : int;
  decisions_run : int;
  decision_fastpath : int;
      (** updates resolved by the best-vs-challenger fast path without
          a full candidate rescan *)
  loc_rib_changes : int;
  announcements_emitted : int;
  policy_units : int;
}

val stats : t -> stats
