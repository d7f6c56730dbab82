(** RFC 2439 route flap damping: a per-(peer, prefix) penalty /
    suppress / reuse-timer state machine.

    Each route accumulates a penalty on every flap (withdrawal, or
    re-announcement with changed attributes); the penalty decays
    exponentially with a configured half-life.  When it crosses the
    suppress threshold the route is {e suppressed} — further
    announcements are withheld from the decision process — until decay
    brings the penalty back below the reuse threshold, at which point
    the most recent announcement is released for re-injection.

    The module is pure with respect to time: every transition takes an
    explicit [~now] (seconds, from whichever {!Bgp_engine.Clock} the
    caller runs on), so the same flap sequence damps identically in
    sim and live modes.  Only routes that have actually flapped carry
    state — a clean table load with damping enabled allocates
    nothing. *)

type config = {
  half_life : float;          (** seconds for the penalty to halve *)
  suppress_threshold : float; (** penalty at/above which a route is suppressed *)
  reuse_threshold : float;    (** decayed penalty at/below which it is reused *)
  max_suppress : float;       (** max seconds a route may stay suppressed *)
  withdraw_penalty : float;   (** added per withdrawal *)
  attr_change_penalty : float;(** added per re-announcement with new attrs *)
}

val test_config : config
(** Compressed timers for simulation and tests: half-life 2 s, suppress
    1500, reuse 750, max suppress 8 s, penalties 1000 / 500 — two
    quick withdrawals suppress a route, and reuse arrives within
    seconds of sim time. *)

val ceiling : config -> float
(** The penalty ceiling [reuse_threshold * 2^(max_suppress /
    half_life)]: clamping accumulation here guarantees no route stays
    suppressed longer than [max_suppress] once it stops flapping. *)

type t

type verdict = Pass | Suppress

val create : metrics:Bgp_stats.Metrics.t -> config -> t
(** A damping table.  Registers its flap, suppression and reuse
    counters, a histogram of the seconds each route spent suppressed,
    and a gauge of the routes suppressed now, in [metrics]; the
    getters and registry readers below are the only way to them. *)

val config : t -> config

val on_announce :
  t -> now:float -> peer:Bgp_route.Peer.t -> prefix:Bgp_addr.Prefix.t ->
  attrs:Bgp_route.Attrs.Interned.t -> verdict
(** Charge an incoming announcement.  [Pass] means the caller should
    run the route through the RIB as usual; [Suppress] means it must
    be withheld (the module remembers [attrs] and releases them via
    {!take_reusable} when the penalty decays).  A first announcement
    of an untracked route always passes and creates no state. *)

val note_withdraw :
  t -> now:float -> peer:Bgp_route.Peer.t -> prefix:Bgp_addr.Prefix.t -> unit
(** Charge a withdrawal.  Withdrawals themselves always reach the RIB
    (RFC 2439 §2.2: suppression never keeps an unreachable route). *)

val penalty :
  t -> now:float -> peer:Bgp_route.Peer.t -> prefix:Bgp_addr.Prefix.t -> float
(** Decayed penalty as of [now] ([0.] for untracked routes). *)

val suppressed_count : t -> int

val next_reuse_at : t -> float option
(** Earliest instant at which some suppressed route's penalty decays
    to the reuse threshold — the caller's reuse-timer deadline.
    [None] when nothing is suppressed. *)

val take_reusable :
  t -> now:float ->
  (Bgp_route.Peer.t * Bgp_addr.Prefix.t * Bgp_route.Attrs.Interned.t) list
(** Release every suppressed route whose penalty has decayed to the
    reuse threshold at [now].  Routes whose latest state is an
    announcement are returned (peer-id then prefix order, so
    re-injection is deterministic) for the caller to feed back into
    the decision process; routes withdrawn while suppressed are simply
    unsuppressed. *)

(** {1 Reading a registry}

    The counters as a registry holds them: the router's live one, or a
    phase's frozen copy ({!Bgp_stats.Metrics.freeze}).  Each counts
    since the registry's last {!Bgp_stats.Metrics.reset_all}, so it is
    scoped to the phase like every other counter.  A registry no
    damping table registered on reads as zero. *)

val flaps_in : Bgp_stats.Metrics.t -> int
(** Flaps charged. *)

val suppressions_in : Bgp_stats.Metrics.t -> int
(** Routes suppressed. *)

val reuses_in : Bgp_stats.Metrics.t -> int
(** Suppressed routes released. *)

val suppressed_in : Bgp_stats.Metrics.t -> int
(** Routes suppressed when the registry was read, or frozen. *)

val reuse_latency_in : Bgp_stats.Metrics.t -> int * float * float
(** (count, mean, max) of the clock seconds from suppression to
    reuse. *)
