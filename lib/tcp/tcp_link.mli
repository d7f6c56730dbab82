(** Real loopback TCP connections as {!Bgp_engine.Link.t} endpoints.

    The live counterpart of {!Bgp_netsim.Channel}.  An endpoint is
    either a listener on a loopback port (passive, as the router under
    test is in the paper's setup) or a connector that dials one (whose
    [start_connect] actually opens the socket).  Both kinds, on one
    {!Event_loop}, may talk to each other or to another process; reads
    and connection events flow through the loop, so callback context
    matches the simulated channel (everything fires from the pump,
    never from inside [send]).

    Semantics mirrored from the simulated channel:
    - outbound taps see whole messages (one [send] = one tap consult)
      and may pass, drop, or tamper with them, in order;
    - closing either endpoint tears the connection down on both sides
      (close/EOF), after which the connector may [start_connect] again
      — a new connection, whose stream starts empty: output still
      queued for the old one is discarded;
    - output is queued and flushed as the peer drains it (write
      readiness), so a burst larger than the socket buffers cannot
      deadlock the single-threaded loop.

    [send] only queues: the link's bytes leave at the loop turn's flush
    ({!Event_loop.at_flush}), so every message sent in one turn goes
    out in one write.  [close] first writes what the socket accepts of
    the queue (a NOTIFICATION sent just before it goes out), then
    closes.  A write that fails, [EPIPE] from a peer that has gone
    included, tears the connection down like a close.

    One behaviour has no simulated counterpart: a refused dial fires
    the connector's [on_failed], never [on_closed] — RFC 4271
    TcpConnectionFails, after which the FSM retries from Active
    instead of going Idle. *)

type endpoint = {
  link : Bgp_engine.Link.t;
  port : int;  (** the loopback port listened on, or dialled *)
  dispose : unit -> unit;
      (** close every socket of the endpoint, the listening one
          included; the link is dead afterwards *)
}

val listen : Event_loop.t -> port:int -> endpoint
(** Passive endpoint on 127.0.0.1:[port] ([0] binds an ephemeral port,
    reported in [port]).  It accepts connections for as long as it
    lives, one at a time: a connection that arrives while another is
    up is closed at once, so a stranger cannot take over the peer's
    session.
    @raise Unix.Unix_error if the port cannot be bound. *)

val connect : Event_loop.t -> port:int -> endpoint
(** Active endpoint that dials 127.0.0.1:[port] on each
    [start_connect]. *)

type t = {
  connector : Bgp_engine.Link.t;
      (** active opener — [start_connect] dials the listener *)
  listener : Bgp_engine.Link.t;
      (** passive side — accepts (and re-accepts) connections *)
  dispose : unit -> unit;
      (** close every socket including the listening one; endpoints are
          dead afterwards *)
}

val pair : Event_loop.t -> t
(** An ephemeral-port {!listen} and a {!connect} aimed at it.  Nothing
    connects until [connector.start_connect]. *)
