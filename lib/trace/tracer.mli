(** Low-overhead structured trace recorder.

    A tracer is a bounded ring buffer of typed events recorded against
    named tracks (a track is a [process]/[thread] pair; in the exporter
    each simulated core or logical lane becomes one track). Timestamps
    are explicit — callers pass the virtual time of their
    {!Bgp_engine.Engine} — so this library depends on nothing below
    [bgp_stats] and every layer of the simulator can record into it
    without dependency cycles.

    Recording is unconditional and cheap (one ring slot per event); the
    zero-cost-when-disabled property comes from callers holding a
    [Tracer.t option] and skipping instrumentation entirely when it is
    [None]. Sampling ({!sample_this}) lets high-volume producers keep
    only every [1/N]-th unit of work so full-table runs stay bounded. *)

type t
type track

type value = Int of int | Float of float | Str of string

type phase =
  | Span  (** complete slice: [ev_ts .. ev_ts + ev_dur] *)
  | Async  (** overlapping span (per-update latency); exported as b/e pair *)
  | Instant  (** point event *)
  | Counter  (** sampled counter values carried in [ev_args] *)

type event = {
  ev_track : track;
  ev_phase : phase;
  ev_name : string;
  ev_ts : float;  (** virtual seconds *)
  ev_dur : float;  (** virtual seconds; 0 for non-span phases *)
  ev_args : (string * value) list;
}

val create : ?capacity:int -> ?sample:int -> unit -> t
(** [capacity] bounds the ring (default 524288 events; oldest events are
    overwritten once full and counted in {!dropped}). [sample] keeps one
    update batch in every [sample] (default 1 = keep all). *)

val sample_interval : t -> int

val set_shared : t -> unit
(** Make this tracer safe to record into from multiple OCaml domains
    (e.g. the partitions of a {!Bgp_sim.Pengine} run) by guarding every
    mutation with an internal mutex.  Off by default so single-domain
    recording pays no locking; idempotent. *)

val track : t -> ?process:string -> thread:string -> unit -> track
(** Register (or look up) the track named [(process, thread)]. Tracks are
    deduplicated by name pair, so calling this repeatedly is cheap and
    idempotent. Default process is ["bgpmark"]. *)

val track_process : track -> string
val track_thread : track -> string

val track_id : track -> int
(** Dense id in registration order, starting at 0. *)

val sample_this : t -> bool
(** Decimation gate for per-update producers: true once every
    {!sample_interval} calls. Each call advances the counter. *)

val sim_hit : t -> bool
(** Same interval as {!sample_this} but an independent counter, used by
    the simulator layer (scheduler instants / occupancy counters) so the
    two producers decimate independently. *)

val span :
  t -> track -> name:string -> ts:float -> dur:float ->
  ?args:(string * value) list -> unit -> unit

val span_fifo :
  t -> track -> name:string -> dispatch:float -> finish:float ->
  ?args:(string * value) list -> unit -> float * float
(** Record a span on a FIFO track (a single-job simulated process): the
    start is clamped to [max dispatch last_end] for that track so
    consecutive slices never overlap, and the queueing delay
    [start - dispatch] is attached as a ["wait_s"] arg. Returns the
    actual [(start, finish)] window recorded. *)

val instant :
  t -> track -> name:string -> ts:float -> ?args:(string * value) list ->
  unit -> unit

val counter : t -> track -> name:string -> ts:float -> (string * float) list -> unit

(** {2 Typed helpers (the event taxonomy)} *)

val stage_span :
  t -> track -> stage:string -> dispatch:float -> finish:float ->
  cycles:float -> units:int -> attr_groups:int -> peer:int -> unit
(** Pipeline stage execution on a simulated core track (FIFO-clamped). *)

val stage_mark :
  t -> track -> stage:string -> ts:float -> units:int -> attr_groups:int ->
  peer:int -> unit
(** Inline (zero simulated CPU) stage: a zero-duration slice. *)

val update_span :
  t -> track -> dispatch:float -> finish:float -> peer:int -> prefixes:int ->
  bytes:int -> unit
(** Whole-update latency from submit to pipeline completion (async). *)

val proc_state : t -> track -> ts:float -> running:bool -> queue:int -> unit
(** Scheduler process run/block instant. *)

val occupancy : t -> track -> ts:float -> (string * float) list -> unit
(** Core-occupancy counter sample (per-proc service rates, interrupt and
    forwarding demand). *)

val fsm_transition :
  t -> track -> ts:float -> peer:string -> from_state:string ->
  to_state:string -> unit

val fault : t -> track -> ts:float -> fate:string -> detail:string -> unit

(** {2 Draining} *)

val events : t -> event list
(** Retained events in recording order (oldest first). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val tracks : t -> track list
(** All registered tracks, in registration order. *)

val clear : t -> unit
(** Drop all retained events (tracks and counters are kept). *)
