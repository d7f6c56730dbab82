(** The router under test: protocol engine + architecture model.

    Assembles, on one {!Bgp_engine.Clock}:
    - a passive BGP {!Bgp_fsm.Session} per attached peer,
    - the {!Bgp_rib.Rib_manager} three-RIB update engine,
    - a {!Bgp_fib.Fib} forwarding table,
    - a {!Bgp_netsim.Forwarding} data-plane model, and
    - the architecture's CPU: a {!Bgp_pipeline.Pipeline} built from the
      architecture's declarative stage table ({!Arch.stage_table}) on a
      {!Bgp_sim.Sched} pool — the XORP process chain runs [Pipelined],
      the commercial black box runs [Fused_paced].

    Protocol work happens logically when messages arrive, but its
    {e completion} — and therefore the transactions-per-second metric —
    is gated by simulated CPU-cycle jobs flowing through the update
    pipeline, which is where architecture differences and cross-traffic
    interference show up.

    All instrumentation — router window counters, {!Bgp_rib.Rib_manager}
    work counters, and per-stage pipeline accounting — lives in one
    {!Bgp_stats.Metrics} registry, reset atomically at phase
    boundaries. *)

type t

val create :
  ?import:Bgp_policy.Policy.t ->
  ?export:Bgp_policy.Policy.t ->
  ?aggregates:Bgp_rib.Rib_manager.aggregate_config list ->
  ?mrai:float ->
  ?damping:Bgp_rib.Damping.config ->
  ?metrics:Bgp_stats.Metrics.t ->
  ?tracer:Bgp_trace.Tracer.t ->
  ?trace_process:string ->
  Bgp_engine.Clock.t ->
  Arch.t ->
  local_asn:Bgp_route.Asn.t ->
  router_id:Bgp_addr.Ipv4.t ->
  t
(** [aggregates]: originate these aggregates (RFC 4271 section
    9.2.2.2) while a more-specific route is selected; none by default.

    [mrai]: enable RFC 4271 section 9.2.1.1 MinRouteAdvertisementInterval
    batching of outbound advertisements (seconds between flushes per
    peer).  Off by default — XORP 1.3, as benchmarked by the paper,
    advertises per decision.

    [damping]: enable RFC 2439 route flap damping with the given
    parameters ({!Bgp_rib.Damping.config}).  Announcements of
    suppressed routes are withheld before the decision process,
    withdrawals always pass, session loss charges a withdrawal flap
    for every route the peer's loss took out of the FIB, and a single
    reuse timer (on the router's clock) re-injects withheld routes as
    their penalties decay — each re-injection runs the FIB process and
    books one transaction, like a local origination.  The table
    registers its metrics in the router's registry ({!Bgp_rib.Damping}
    reads them back).  Off by default:
    with [damping] absent the update path is byte-identical to a
    router built without this parameter.

    [metrics]: the registry everything registers into (default: a fresh
    private one).  Supplying a shared registry lets a harness read all
    router metrics through one handle; it must not already hold
    [router.*], [rib.*], or [pipeline.*] names.

    [tracer]: record structured trace events — pipeline stage spans,
    scheduler run/block and core occupancy, FSM transitions of attached
    peers — into the given {!Bgp_trace.Tracer}, grouped under a trace
    process named [trace_process] (default: the architecture name).
    Off by default and purely observational: simulated timings and all
    counters are identical with tracing on or off. *)

val sched : t -> Bgp_sim.Sched.t
val rib : t -> Bgp_rib.Rib_manager.t
val fib : t -> Bgp_fib.Fib.t
val forwarding : t -> Bgp_netsim.Forwarding.t

val metrics : t -> Bgp_stats.Metrics.t
(** The unified registry behind {!counters}, the RIB work counters, and
    the per-stage pipeline accounting. *)

val stage_stats : t -> Bgp_pipeline.Pipeline.stage_stat list
(** Per-stage unit/batch/cycle breakdown for the current measurement
    window (reset by {!reset_counters}). *)

val attach_peer :
  ?max_prefixes:int -> ?restart_delay:float -> ?active:bool ->
  ?rr_client:bool ->
  ?import:Bgp_policy.Policy.t -> ?export:Bgp_policy.Policy.t ->
  t -> peer:Bgp_route.Peer.t -> link:Bgp_engine.Link.t -> unit
(** Register a neighbor reachable over [link] — one endpoint of a
    simulated {!Bgp_netsim.Channel} or a live TCP connection, the
    router cannot tell — and start a session on it.
    @raise Invalid_argument if the peer's id is already attached
    (the id names the neighbor in every RIB; silently rebinding it
    would orphan the old session).
    [max_prefixes] enables prefix-limit protection: an announcement
    pushing the peer's Adj-RIB-In beyond the limit tears the session
    down with a CEASE and flushes the peer's routes.
    [restart_delay] enables automatic recovery: whenever the session
    drops to Idle it is restarted (passively, waiting for the peer to
    reconnect) after that many clock seconds — required by the
    adversarial flap scenarios, off by default.
    [active] (default false) makes this side the connection opener —
    router-to-router links in a {!Bgp_topo} graph designate exactly one
    opener per edge; the benchmark router stays passive, as in the
    paper's setup.
    [rr_client] (default false) makes an IBGP neighbor a
    route-reflection client (RFC 4456).
    [import]/[export] install per-peer policies (e.g. the Gao–Rexford
    relationship rules), overriding the router-wide defaults given to
    {!create}.
    The [peer]'s AS and BGP identifier are replaced by those of the
    neighbor's OPEN each time the session reaches Established, so a
    neighbor known only by its link may be attached with placeholder
    values; [id] and [addr] are kept. *)

val session_state : t -> Bgp_route.Peer.t -> Bgp_fsm.Fsm.state

val originate : ?attrs:Bgp_route.Attrs.t -> t -> prefix:Bgp_addr.Prefix.t -> unit
(** Originate [prefix] locally, with [attrs] (e.g. a route replayed
    from a table file) or by default next-hop self.  The FIB commit and the
    advertisements to every Established peer are charged to the FIB
    process, off the update pipeline; one transaction is booked when
    the commit completes. *)

val withdraw_origin : t -> prefix:Bgp_addr.Prefix.t -> unit
(** Withdraw a locally originated prefix (counterpart of
    {!originate}). *)

val set_cross_traffic : t -> Bgp_netsim.Traffic.t -> unit

val set_route_observer : t -> (Bgp_addr.Prefix.t -> unit) -> unit
(** Install a hook fired once per Loc-RIB best-route change, with the
    affected prefix — the signal a topology harness counts as one
    path-exploration step (default: ignore).  Covers inbound-update
    decisions, local (de)origination, and peer-loss flushes. *)

val idle : t -> bool
(** No control-plane work queued or in flight (the criterion the
    harness uses to detect the end of a phase). *)

type counters = {
  transactions : int;
      (** prefixes fully processed through to FIB/Loc-RIB completion *)
  updates_rx : int;
  withdrawn_rx : int;
      (** prefixes withdrawn in received UPDATEs *)
  msgs_rx : int;
  msgs_tx : int;
  bytes_rx : int;
  bytes_tx : int;
  first_work_at : float option;
      (** virtual time the first update of the window arrived *)
  last_transaction_at : float option;
}

val counters : t -> counters
val reset_counters : t -> unit
(** Zero the window counters (phase boundary).  Resets through the
    shared registry ({!Bgp_stats.Metrics.reset_all}), so router, RIB,
    and per-stage pipeline accounting clear together. *)
