(** A network of simulated routers: N {!Bgp_router.Router} instances
    wired pairwise over {!Bgp_netsim.Channel}s on one shared event
    loop, each with its own AS number, router id, and per-edge
    policies.

    Vertex [i] of the topology becomes AS [64512 + i] (the RFC 1930
    private range; plain AS [i + 1] when the graph outgrows the
    1023-wide block) at address [10.<i/256>.<i%256>.1], originating
    one seeded prefix ({!Bgp_addr.Prefix_gen} stream of the topology
    seed).  For every edge the lower-index side listens passively and
    the higher-index side opens the connection, so exactly one BGP
    session runs per link (the FSM does not model §6.8 collision
    resolution).

    {b Convergence} is quiescence: every router idle (no update in the
    pipeline, no queued CPU job) and no bytes in flight on any channel
    — the only events left are keepalive-class timers.  Detection polls
    the event loop, but the reported convergence {e time} is
    event-precise simulated time: last transaction completion minus
    injection start, independent of the polling grid. *)

type policy_mode =
  | Transit       (** accept-all everywhere: full-mesh transit *)
  | Gao_rexford   (** {!Gao_rexford} relationship policies per edge *)

val policy_mode_to_string : policy_mode -> string

type t

val create :
  ?arch:Bgp_router.Arch.t ->
  ?mode:policy_mode ->
  ?domains:int ->
  ?tracer:Bgp_trace.Tracer.t ->
  ?trace_prefix:string ->
  Topology.t ->
  t
(** Build the graph (default arch: the Pentium III software router;
    default mode [Transit]); every link is a {!Bgp_netsim.Channel}
    with its default latency, 100 us.  All state lives on a fresh
    private engine; nothing is shared with any single-DUT harness
    run.

    [domains] (default 1) splits the network over that many simulation
    partitions of a {!Bgp_sim.Pengine}: vertices are assigned by
    {!Partition.assign}, same-partition links stay on the direct
    scheduling path, and cross-partition links become mailbox channels
    whose latency bounds the conservative-lookahead window.  One domain
    is byte-identical to the historical single-engine network; more
    domains run the partitions on parallel OCaml domains and converge
    to the same routes (the decision process is arrival-order
    invariant), though same-instant event interleavings — and hence
    raw message counts — may differ.

    With [tracer], every router records structured trace events under
    the process name ["<trace_prefix>/node-<i>"] (default prefix
    ["topo"]; with multiple domains ["<trace_prefix>/d<p>/node-<i>"],
    and the tracer is switched to shared mode), so a converging network
    renders as one track group per node in the Chrome trace view. *)

val partition_of : t -> int -> int
(** The simulation domain vertex [i] lives on. *)

val cut_links : t -> int
(** Links whose endpoints straddle domains (mailbox channels). *)

val events_of_domain : t -> int -> int
(** Events dispatched so far by one domain's partition — the numerator
    of the per-domain events/sec curve. *)

val size : t -> int
val router : t -> int -> Bgp_router.Router.t
val origin_prefix : t -> int -> Bgp_addr.Prefix.t
(** The prefix vertex [i] originates. *)

val establish : ?timeout:float -> t -> unit
(** Bring every session to Established (default timeout 600 virtual
    seconds).  @raise Failure on timeout. *)

val originate : t -> int -> unit
(** Vertex [i] announces its origin prefix. *)

val withdraw_origin : t -> int -> unit
val originate_all : t -> unit

val converge : ?timeout:float -> what:string -> t -> float
(** Drive the event loop to quiescence and return the convergence time
    in simulated seconds (last transaction completion − injection
    start; 0 when the episode moved nothing).  @raise Failure on
    timeout (default 600 virtual seconds). *)

val cut_link : t -> int -> int -> unit
(** Fail the edge [u]–[v]: install {!Bgp_netsim.Channel} drop taps on
    both directions (any bytes already serialized die on the wire,
    faults-style) and close the channel, so both ends detect the loss
    and start path hunting.  @raise Invalid_argument if no such edge
    exists. *)

(** {1 Measurement} *)

val total_updates : t -> int
(** Sum of every router's {!Bgp_router.Router.counters} [updates_rx] —
    the update-amplification numerator. *)

val explored_paths : t -> int -> Bgp_addr.Prefix.t -> int
(** Loc-RIB changes vertex [i] went through for [prefix] since the
    last {!reset_exploration} — the path-exploration count. *)

val reset_exploration : t -> unit
(** Zero the per-(vertex, prefix) exploration counters; done at an
    episode boundary (e.g. post-convergence, before a link cut). *)

val loc_rib_fingerprint : t -> int -> string
(** Canonical rendering of vertex [i]'s Loc-RIB — (prefix, AS path,
    next hop) sorted by prefix — for determinism comparisons. *)

val fib_fingerprint : t -> int -> string
(** Canonical rendering of vertex [i]'s FIB — (prefix, next hop, port)
    sorted — the second leg of the single- vs multi-domain
    equivalence check. *)

val reachability : t -> int -> int -> bool
(** [reachability t i j]: does vertex [i] hold a route to vertex [j]'s
    origin prefix? *)
