(** A benchmark BGP speaker (Fig. 1): the active endpoint that drives
    the router under test.

    Speakers have no RIB and no cost model — they are ideal load
    generators, as in the paper's methodology, so the measured
    bottleneck is always the router. *)

type t

val create :
  Bgp_engine.Clock.t ->
  asn:Bgp_route.Asn.t ->
  router_id:Bgp_addr.Ipv4.t ->
  link:Bgp_engine.Link.t ->
  t
(** An active (connecting) speaker on one transport endpoint —
    simulated channel side or live TCP connector.  Call {!start} to
    bring the session up. *)

val start : t -> unit
val stop : t -> unit
val state : t -> Bgp_fsm.Fsm.state
val established : t -> bool

val sessions_lost : t -> int
(** Times the session dropped out of Established/OpenSent/OpenConfirm
    (FSM [Session_down]).  {!start} may be called again from Idle to
    reconnect — the adversarial flap scenarios do. *)

val announce :
  t -> packing:int -> attrs:Bgp_route.Attrs.t -> Bgp_addr.Prefix.t array -> int
(** [announce t ~packing ~attrs prefixes] transmits the prefixes, in
    order, as UPDATE messages carrying [packing] prefixes each (1 = the
    paper's "small packets", 500 = "large packets"), or fewer where
    [packing] of them would not fit one {!Bgp_wire.Msg.max_len}-byte
    message ({!Bgp_wire.Codec.updates}).  Returns the number of
    messages sent.
    @raise Invalid_argument if the session is not Established or
    [packing < 1]. *)

val withdraw : t -> packing:int -> Bgp_addr.Prefix.t array -> int
(** Same, with withdrawal messages. *)

val send_update : t -> Bgp_wire.Msg.t -> bool
(** Transmit one pre-built UPDATE verbatim — the MRT replay path,
    where messages arrive already framed from the trace rather than
    being regenerated from a table.  Returns [false] if the transport
    refused the message (session dropped mid-replay).
    @raise Invalid_argument if the session is not Established or the
    message is not an UPDATE. *)

val request_refresh : t -> unit
(** Send a ROUTE-REFRESH (RFC 2918) asking the router to resend its
    full Adj-RIB-Out for IPv4 unicast.
    @raise Invalid_argument if the session is not Established. *)

val updates_received : t -> int
(** UPDATE messages the router sent us (Phase 2 transfers, Phase 3
    re-advertisements). *)

val prefixes_received : t -> int
(** Announced prefixes contained in those updates. *)

val withdrawals_received : t -> int

val received_prefix_set : t -> (Bgp_addr.Prefix.t, Bgp_route.Attrs.Interned.t) Hashtbl.t
(** Live view of the routes currently advertised to this speaker
    (announcements minus withdrawals) — the benchmark's correctness
    check that the router really transferred its table. *)

val set_update_observer : t -> (Bgp_wire.Msg.update -> unit) -> unit
(** Install a hook called on every UPDATE this speaker receives, after
    the built-in counters and {!received_prefix_set} bookkeeping have
    run.  The churn harness uses it to timestamp each prefix of the
    failover withdraw sweep as it lands.  Replaces any previous hook;
    [ignore] by default. *)
