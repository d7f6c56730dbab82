(** Replay of a recorded update sequence through a peer.

    Drives [(offset, msg)] events (from {!Mrt.updates_of_dump}) into a
    caller-supplied send function, either as fast as the receiver
    drains them or paced on a {!Bgp_engine.Clock} at recorded or
    accelerated timing.  Because pacing goes through the clock
    capability, the identical replay runs under the simulator and the
    live TCP loop — which is what lets the harness crosscheck
    fingerprints between the two. *)

type pacing =
  | Unpaced
      (** Send every event back-to-back, ignoring recorded offsets —
          the throughput-measurement mode. *)
  | Timed of float
      (** Honor recorded inter-arrival times divided by the speedup
          factor ([Timed 1.] is real recorded pacing; [Timed 60.]
          replays a minute of trace per second). *)

type t

val start :
  clock:Bgp_engine.Clock.t ->
  pacing:pacing ->
  send:(Bgp_wire.Msg.t -> bool) ->
  (float * Bgp_wire.Msg.t) list ->
  t
(** Begin the replay.  [send] returns [false] when the transport has
    gone away; the replay then stops early.  Events with non-positive
    or out-of-order offsets are sent at the earliest legal instant
    (the clock never runs backwards).
    @raise Invalid_argument on a [Timed] speedup that is not > 0 (NaN
    included). *)

val sent : t -> int
(** Messages pushed into [send] so far. *)

val total : t -> int

val finished : t -> bool
(** All events sent, or the transport failed. *)

val failed : t -> bool
(** [send] returned [false] before the sequence completed. *)

val expected_prefixes :
  (float * Bgp_wire.Msg.t) list -> Bgp_addr.Prefix.t list ->
  Bgp_addr.Prefix.t list
(** Fold announcements and withdrawals over an initial prefix set (the
    loaded table) to the set a correct receiver holds after the full
    replay — the replay oracle.  Sorted by {!Bgp_addr.Prefix.compare}. *)
