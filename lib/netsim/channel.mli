(** A reliable, ordered, bidirectional byte channel inside the
    simulator — the stand-in for a TCP connection between a benchmark
    speaker and the router under test.

    Models propagation latency and per-direction serialization at a
    configurable bandwidth; delivery is loss-free and ordered, which is
    what BGP assumes of TCP. *)

type side = A | B

type fate = Bgp_engine.Link.fate =
  | Pass  (** deliver unchanged *)
  | Drop  (** silently discard (transport-level loss) *)
  | Deliver of string * float
      (** deliver this (possibly tampered) payload with the given extra
          delay on top of the channel latency (corruption/reordering) *)

type t

val create :
  Bgp_sim.Engine.t -> ?latency:float -> ?bandwidth_mbps:float -> unit -> t
(** Default latency 100 us, bandwidth 1000 Mbps.  Both sides live on
    the given engine.  A connect or close flips both sides at once, and
    one event one latency later notifies side A, then side B, whichever
    side started it. *)

val create_cross :
  Bgp_sim.Pengine.t ->
  part_a:int ->
  part_b:int ->
  ?latency:float ->
  ?bandwidth_mbps:float ->
  unit ->
  t
(** A channel between two partitions of a {!Bgp_sim.Pengine}.  With
    [part_a = part_b] this is {!create} on that partition's engine.
    Otherwise payloads and the peer's connect/close notification travel
    through the partitioned engine's mailbox and arrive one link
    latency later; the latency is registered as a lookahead bound, so
    the synchronization is exact.  Each side keeps its own connection
    state: a side keeps sending until the peer's close reaches it, and
    those bytes are dropped on arrival, as after a TCP RST.
    @raise Invalid_argument if the parts differ and [latency <= 0]. *)

val set_receiver : t -> side -> (string -> unit) -> unit
(** Install the byte sink for one side (bytes sent by the {e other}
    side arrive here). *)

val set_on_connected : t -> side -> (unit -> unit) -> unit
val set_on_closed : t -> side -> (unit -> unit) -> unit

val set_tap : t -> side -> (string -> fate) -> unit
(** Install a fault-injection tap on bytes {e sent by} [side]: every
    [send] consults the tap to pass, drop, tamper with, or delay the
    payload.  Serialization cost is always charged for the original
    bytes.  The default (no tap) is exactly the loss-free channel —
    taps exist for the {!Bgp_faults} adversarial scenarios and change
    nothing until installed. *)

val clear_tap : t -> side -> unit

val connect : t -> unit
(** Begin the (abstracted) handshake; both sides' [on_connected] fire
    after one latency.  Idempotent while open.  Reconnecting after
    {!close} starts a new connection generation: bytes still in flight
    from the previous connection are discarded, never delivered into
    the new stream. *)

val close : t -> unit
(** Both sides' [on_closed] fire after one latency; in-flight bytes are
    dropped (as with a TCP RST).  Also how the fault injector models an
    unsolicited peer reset. *)

val is_open : t -> bool

val send : t -> side -> string -> unit
(** Queue bytes from [side] to its peer.  Silently dropped when the
    channel is closed (as with a TCP RST race). *)

val endpoint : t -> side -> Bgp_engine.Link.t
(** One side of the channel as a transport-neutral
    {!Bgp_engine.Link.t}.  [start_connect] opens the channel (harmless
    from the passive side, which never calls it), [close] closes it,
    and [set_tap] installs/clears this side's outbound tap.  This is
    how routers and speakers see a simulated channel — the same shape
    a live TCP connection presents. *)

val bytes_carried : t -> side -> int
(** Total payload bytes this side has transmitted. *)

val in_flight : t -> int
(** Payloads scheduled but not yet delivered, both directions.  Stale
    deliveries from a turned-over connection count until their delivery
    time passes.  A multi-router convergence detector treats
    [in_flight = 0] (on every channel) as "no bytes on the wire".  Each
    side counts its own sends and arrivals, so across partitions read
    this only between {!Bgp_sim.Pengine} windows. *)
