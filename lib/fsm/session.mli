(** A live BGP session: {!Fsm} + {!Framer} wired to a transport and a
    timer service.

    The session is transport-agnostic — the simulated byte channels of
    [bgp_netsim] and the real TCP sockets of [bgp_tcp] both drive it
    through the same five entry points ({!connected}, {!failed},
    {!closed}, {!feed}, plus timer callbacks the session arms itself). *)

type timer_service = {
  arm_timer : float -> (unit -> unit) -> unit -> unit;
      (** [arm_timer delay fn] schedules [fn] after [delay] seconds of
          the transport's notion of time and returns a cancel thunk. *)
}

val timer_service_of : Bgp_engine.Clock.t -> timer_service
(** The canonical timer service over a {!Bgp_engine.Clock}: [arm_timer]
    schedules on the clock and the returned thunk is the clock handle's
    idempotent cancel.  Simulated and live sessions both use this — the
    clock is the only thing that differs. *)

type io = {
  out_bytes : string -> unit;     (** transmit wire bytes *)
  start_connect : unit -> unit;   (** initiate the transport connection *)
  close : unit -> unit;           (** tear the connection down *)
}

type hooks = {
  on_update : Bgp_wire.Msg.update -> unit;
      (** an UPDATE arrived (session is Established) *)
  on_refresh : int -> int -> unit;
      (** a ROUTE-REFRESH arrived (RFC 2918): [(afi, safi)] *)
  on_established : unit -> unit;
  on_down : string -> unit;       (** reason *)
  on_tx_msg : Bgp_wire.Msg.t -> int -> unit;
      (** observation hook: a message of n wire bytes was sent *)
  on_rx_msg : Bgp_wire.Msg.t -> int -> unit;
      (** observation hook: a message of n wire bytes was decoded *)
}

val null_hooks : hooks

type t

val create : Fsm.config -> timer_service -> io -> hooks -> t

val of_link :
  Fsm.config -> timer_service -> Bgp_engine.Link.t -> hooks -> t
(** A session speaking over a transport endpoint: {!create} with the
    endpoint's [send]/[start_connect]/[close] as its {!io} (a passive
    session never dials, even if the FSM were to ask), and the
    endpoint's receiver, connected, closed, and failed callbacks driving
    {!feed}, {!connected}, {!closed}, and {!failed}. *)

val state : t -> Fsm.state
val fsm : t -> Fsm.t

val set_transition_observer : t -> (Fsm.state -> Fsm.state -> unit) -> unit
(** Install an observer called as [(before, after)] whenever dispatching
    an event changes the FSM state (before the resulting actions are
    performed).  Observation only — installing one must not change
    session behavior.  Replaces any previous observer; default is a
    no-op. *)

val start : t -> unit
(** Administrative up (Idle -> Connect, or Active when passive). *)

val stop : t -> unit
(** Administrative down (sends CEASE when appropriate). *)

val connected : t -> unit
(** Transport reports the connection opened (either direction). *)

val failed : t -> unit
val closed : t -> unit

val feed : t -> string -> unit
(** Bytes arrived from the transport. *)

val send : t -> Bgp_wire.Msg.t -> bool
(** Transmit a message if the session is Established ([false]
    otherwise).  OPEN/KEEPALIVE/NOTIFICATION are emitted by the FSM
    itself; use this for UPDATEs. *)
