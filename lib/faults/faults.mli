(** Deterministic, seed-driven fault injection for adversarial BGP
    workloads.

    The paper's eight scenarios assume well-formed, well-behaved
    peers.  This layer threads controlled misbehavior through the
    simulated transport so the harness can also characterize the
    router's error paths:

    - {b byte-level faults} — corruption and truncation of encoded
      messages between a {!Bgp_speaker.Speaker} and the router's
      framer, each mutation pre-validated through the codec so the
      RFC 4271 NOTIFICATION the router must answer with is known in
      advance;
    - {b session faults} — unsolicited TCP resets (transport close
      under the session), speaker-initiated CEASE + reconnect
      flaps, and hold-timer starvation (a blackhole window longer than
      the negotiated hold time);
    - {b channel impairments} — probabilistic loss, reordering (extra
      per-message delay), applied below BGP's TCP reliability
      assumption, which is exactly why they must never crash the
      decoder or the FSM.

    Everything is off by default ({!none}); a profile only takes
    effect on channels explicitly tapped.  All randomness flows from
    one {!Bgp_sim.Rng} stream seeded by the profile, so identical
    profiles replay identical fault sequences.

    Counters registered in the router's metrics registry —
    [faults.injected], [faults.malformed_dropped],
    [faults.session_restarts], and the [faults.reconverge_seconds]
    histogram — surface in the harness per-stage breakdown, the bench
    smoke run, and [bgpbench] output. *)

type profile = {
  seed : int;
  corrupt_prob : float;   (** chance a sent message is byte-flipped *)
  truncate_prob : float;  (** chance a sent message is truncated *)
  drop_prob : float;      (** chance a sent message is lost *)
  reorder_prob : float;   (** chance a message takes the slow path *)
  reorder_delay : float;  (** extra delay (s) for reordered messages *)
  blackhole : (float * float) option;
      (** absolute virtual-time window during which every tapped
          message is dropped — starves the hold timer *)
}

val none : profile
(** All probabilities zero, no blackhole: a tapped channel behaves
    exactly like an untapped one. *)

type t
(** A fault injector bound to one clock and metrics registry. *)

val create :
  ?profile:profile ->
  ?tracer:Bgp_trace.Tracer.t ->
  ?trace_process:string ->
  clock:Bgp_engine.Clock.t ->
  metrics:Bgp_stats.Metrics.t ->
  unit ->
  t
(** Registers the [faults.*] counters/histogram in [metrics] (so a
    phase-boundary {!Bgp_stats.Metrics.reset_all} clears them with
    everything else).  Default profile {!none}.

    With [tracer], every injected fate (corrupt-armed, bitflip,
    truncate, drop, reorder, blackhole), observed NOTIFICATION and
    session fault/restart becomes an instant event on a
    [trace_process]/"faults" track (default process ["bgpmark"]). *)

val profile : t -> profile

(** {1 Channel taps} *)

val tap_adversarial : t -> Bgp_engine.Link.t -> unit
(** Install the fault tap on messages sent {e by} the given endpoint
    (normally the speaker side): applies armed one-shot corruptions
    first, then the profile's probabilistic truncation, corruption,
    blackhole, loss, and reordering.  Works on any
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
    notifications, e.g. hold-timer expiries under loss, are allowed
    in between). *)

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

(** {1 Counter views} *)

val injected : t -> int
val malformed_dropped : t -> int
val session_restarts : t -> int

val reconvergence_stats : t -> int * float * float
(** (count, mean, max) of the re-convergence histogram. *)
