(** A live BGP session: {!Fsm} + {!Framer} over a {!Bgp_engine.Clock}
    and a {!Bgp_engine.Link}.

    The session is transport-agnostic — the simulated byte channels of
    [bgp_netsim] and the real TCP sockets of [bgp_tcp] both drive it
    through the same entry points ({!connected}, {!failed}, {!closed},
    {!feed}), and its hold, keepalive and connect-retry timers run on
    whichever clock it is given. *)

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

val create :
  Fsm.config -> Bgp_engine.Clock.t -> Bgp_engine.Link.t -> hooks -> t
(** A session speaking over a transport endpoint, its timers scheduled
    on [clock].  The endpoint's [send], [start_connect] and [close]
    carry the FSM's transport actions (a passive session never dials,
    even if the FSM asks), and its receiver, connected, closed, and
    failed callbacks drive {!feed}, {!connected}, {!closed}, and
    {!failed}. *)

val state : t -> Fsm.state
val fsm : t -> Fsm.t

val set_transition_observer : t -> (Fsm.state -> Fsm.state -> unit) -> unit
(** Install an observer called as [(before, after)] whenever dispatching
    an event changes the FSM state (before the resulting actions are
    performed).  Observation only — installing one must not change
    session behavior.  Replaces any previous observer; default is a
    no-op. *)

val start : t -> unit
(** Administrative up (Idle -> Connect, or Active when passive).  A
    passive session whose transport connected while it was Idle (a
    listener accepts whenever it has no connection) goes on as
    connected, to OpenSent, and reads the bytes that arrived
    meanwhile. *)

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

val send_encoded : t -> Bgp_wire.Msg.t -> string -> bool
(** {!send} for a message its caller has already encoded: [wire] must
    be [Codec.encode msg].  The bytes go out as they are and
    [on_tx_msg] sees [msg] and [String.length wire]. *)
