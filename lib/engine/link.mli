(** One endpoint of a bidirectional byte transport.

    The transport-facing twin of {!Clock}: a BGP session speaks to its
    peer through this record whether the bytes ride a simulated
    {!Bgp_netsim.Channel} (with modelled latency and serialization) or
    a real TCP socket on a {!Bgp_tcp.Event_loop}.  Routers, speakers,
    and the fault injector are written against it and never name a
    concrete transport.

    An endpoint owns one direction of transmission ([send]) plus the
    callbacks for its own side (receiver, connected, closed) and an
    outbound tap: fault injection swaps in corrupted payloads through
    it, and the topology layer drops a cut link's bytes.  A tap never
    delays a message, so the transport keeps its order. *)

type fate =
  | Pass  (** deliver unchanged *)
  | Drop  (** discard *)
  | Deliver of string  (** deliver this payload instead *)

type t = {
  send : string -> unit;  (** transmit wire bytes toward the peer *)
  start_connect : unit -> unit;
      (** initiate the transport connection (active opener only; no-op
          on a listening side) *)
  close : unit -> unit;  (** tear the connection down *)
  set_receiver : (string -> unit) -> unit;
      (** bytes arrived from the peer *)
  set_on_connected : (unit -> unit) -> unit;
  set_on_closed : (unit -> unit) -> unit;
  set_on_failed : (unit -> unit) -> unit;
      (** an active connect attempt was refused (RFC 4271
          TcpConnectionFails); a simulated channel, whose connect always
          succeeds, never fires it *)
  set_tap : (string -> fate) option -> unit;
      (** intercept this endpoint's outbound transmissions; [None]
          clears *)
}

val tap : t -> (string -> fate) -> unit
