(** Deterministic fault injection for adversarial BGP workloads.

    The paper's eight scenarios assume well-formed, well-behaved
    peers.  This layer threads controlled misbehavior through the
    transport so the harness can also characterize the router's error
    paths:

    - {b armed corruption} — one-shot mutation of the next encoded
      UPDATE between a {!Bgp_speaker.Speaker} and the router's framer,
      pre-validated through the codec so the RFC 4271 NOTIFICATION the
      router must answer with is known in advance (scenario 9);
    - {b session faults} — unsolicited TCP resets (transport close
      under the session) and speaker-initiated CEASE + reconnect
      flaps, which the harness injects and reports here (scenarios 10
      and 14).

    Nothing happens until an adversarial tap is installed and a
    corruption armed: an unarmed tap passes every message unchanged.
    The mutations draw from one {!Bgp_sim.Rng} stream with a fixed
    seed, so identical runs replay identical mutants.

    The injector counts injected faults, malformed UPDATEs dropped and
    session restarts, and times re-convergence, in the router's metrics
    registry; the readers at the end of this interface are the only
    way to them, and the harness's fault report, the bench smoke run
    and [bgpbench] output read them from a phase's frozen copy. *)

type t
(** A fault injector bound to one clock and metrics registry. *)

val create :
  ?tracer:Bgp_trace.Tracer.t ->
  ?trace_process:string ->
  clock:Bgp_engine.Clock.t ->
  metrics:Bgp_stats.Metrics.t ->
  unit ->
  t
(** Registers the injector's counters and histogram in [metrics] (so a
    phase-boundary {!Bgp_stats.Metrics.reset_all} clears them with
    everything else).

    With [tracer], every armed corruption, observed NOTIFICATION and
    session fault/restart becomes an instant event on a
    [trace_process]/"faults" track (default process ["bgpmark"]). *)

(** {1 Channel taps} *)

val tap_adversarial : t -> Bgp_engine.Link.t -> unit
(** Install the fault tap on messages sent {e by} the given endpoint
    (normally the speaker side): the next UPDATE after
    {!arm_corrupt_next} is replaced by its mutant, and every other
    message passes unchanged.  Works on any
    {!Bgp_engine.Link.t} — simulated channel side or live TCP
    connection alike. *)

val observe_notifications : t -> Bgp_engine.Link.t -> unit
(** Install an observe-only tap recording every NOTIFICATION the given
    endpoint (normally the router side) {e transmits}.  Observation happens
    at send time because a teardown NOTIFICATION races the close that
    follows it (RST semantics) and may legitimately never be
    delivered. *)

(** {1 One-shot armed corruption (the corrupted-update storm)} *)

val arm_corrupt_next : t -> unit
(** Corrupt the next UPDATE that crosses the adversarial tap, using a
    mutation pre-validated to make decoding fail; the predicted
    RFC 4271 error is appended to {!expected_errors}. *)

val expected_errors : t -> Bgp_wire.Msg.error list
(** Predicted NOTIFICATIONs for every armed corruption, in injection
    order. *)

val notifications_seen : t -> Bgp_wire.Msg.error list
(** NOTIFICATIONs the observed side transmitted, in order. *)

val all_answered : t -> bool
(** Every expected error was answered by a transmitted NOTIFICATION
    with the matching RFC 4271 code/subcode, in order (extra
    notifications, e.g. a CEASE from a session fault, are allowed in
    between). *)

(** {1 The corruption oracle (exposed for property tests)} *)

val corrupt : t -> string -> (string * Bgp_wire.Msg.error) option
(** [corrupt t wire] mutates an encoded message (byte flip or
    length-fixed truncation) until the codec predicts a definite
    decode error for the mutant; returns the mutant and the predicted
    error, or [None] if no failing mutation was found (practically
    impossible for real messages). Deterministic given the injector's
    RNG state. *)

val predict : string -> Bgp_wire.Msg.error option
(** The error the router-side framer must raise on this exact byte
    image, if it is guaranteed to raise at all: header-level errors
    from {!Bgp_wire.Codec.required_length}, otherwise body errors from
    {!Bgp_wire.Codec.decode_at}.  [None] means the image decodes
    cleanly or stalls waiting for more bytes. *)

(** {1 Session-fault bookkeeping (driven by the harness)} *)

val note_session_fault : t -> unit
(** A harness-initiated session fault (flap or reset) was injected. *)

val note_session_restart : t -> unit
(** A torn-down session came back to Established. *)

val observe_reconvergence : t -> float -> unit
(** Record one fault-to-recovered duration (seconds of virtual time)
    into the re-convergence histogram. *)

(** {1 Reading a registry}

    The injector's numbers as a registry holds them: the router's live
    one, or a phase's frozen copy ({!Bgp_stats.Metrics.freeze}).  A
    registry no injector registered on reads as zero. *)

val injected_in : Bgp_stats.Metrics.t -> int
(** Faults injected: byte-level fates and session faults. *)

val malformed_dropped_in : Bgp_stats.Metrics.t -> int
(** Malformed UPDATEs the router answered as predicted. *)

val session_restarts_in : Bgp_stats.Metrics.t -> int
(** Torn-down sessions brought back to Established. *)

val reconvergence_in : Bgp_stats.Metrics.t -> int * float * float
(** (count, mean, max) of the fault-to-recovered clock seconds. *)
