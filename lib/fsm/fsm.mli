(** The BGP session finite state machine (RFC 4271 §8), as a pure
    transition function.

    The FSM neither owns sockets nor timers: it consumes {!event}s and
    emits {!action}s, which the surrounding {!Session} executes against
    a transport and a timer service.  Purity keeps every transition
    unit-testable.

    Connection-collision resolution (§6.8) is out of scope: the
    benchmark establishes exactly one connection per speaker pair, with
    the router side passive. *)

type state = Idle | Connect | Active | Open_sent | Open_confirm | Established

val pp_state : Format.formatter -> state -> unit
val state_name : state -> string

type timer = Connect_retry | Hold | Keepalive

type event =
  | Manual_start
  | Manual_stop
  | Tcp_connected   (** transport reports the connection is up *)
  | Tcp_failed      (** connect attempt failed *)
  | Tcp_closed      (** established connection lost *)
  | Msg_received of Bgp_wire.Msg.t
  | Protocol_error of Bgp_wire.Msg.error
      (** the framer failed to decode incoming bytes *)
  | Timer_expired of timer

type action =
  | Start_connect               (** open the transport *)
  | Close_connection
  | Send of Bgp_wire.Msg.t
  | Arm of timer * float        (** (re)arm with the given seconds *)
  | Cancel of timer
  | Deliver_update of Bgp_wire.Msg.update
      (** pass an UPDATE to the RIB layer *)
  | Deliver_refresh of int * int
      (** a ROUTE-REFRESH (RFC 2918) arrived: resend the Adj-RIB-Out *)
  | Session_established
  | Session_down of string      (** reason, for logging/metrics *)

type config = {
  my_asn : Bgp_route.Asn.t;
  my_id : Bgp_addr.Ipv4.t;
  passive : bool;               (** wait for the peer to connect *)
}

val hold_time : int
(** The Hold Time every OPEN proposes: 90 s.  The negotiated hold is
    the smaller of this and the peer's proposal; a peer's 0 disables
    keepalives. *)

val connect_retry : float
(** ConnectRetry timer, seconds: 30. *)

val default_config :
  asn:Bgp_route.Asn.t -> router_id:Bgp_addr.Ipv4.t -> config
(** Active (not passive). *)

type t

val create : config -> t
val state : t -> state
val config : t -> config

val negotiated_hold_time : t -> float option
(** [Some seconds] once OPENs have been exchanged (min of both sides);
    [None] before that or when keepalives are disabled. *)

val peer_open : t -> Bgp_wire.Msg.open_msg option
(** The OPEN received from the peer, once in Open_confirm or later. *)

val handle : t -> event -> t * action list
(** The transition function.  Unknown/ignorable events in a state
    return the unchanged machine and no actions. *)
