(** The discrete-event simulation core.

    Virtual time is in seconds (float).  Events scheduled for the same
    instant fire in scheduling order, so runs are fully deterministic.
    Everything in the benchmark — message transmission, CPU job
    completion, protocol timers, trace sampling — is an event on one
    engine.  Scheduling, cancelling and re-arming cost O(log n), and
    firing an event allocates nothing.  It is also the one event
    representation behind both clocks: a {!Clock.handle} is a
    {!handle}, and the live event loop keeps its events on an engine
    whose time it advances to the wall clock. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds. *)

type handle
(** A scheduled event, cancellable until it fires and re-armable at
    any time. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. max 0 delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; a [time] in the past fires immediately
    (at [now]). *)

val rearm : handle -> time:float -> unit
(** Re-key the event at [time] (a past [time] means now) in place.  It
    takes the next seq, so it is exactly {!cancel} followed by
    {!schedule_at} of the same callback, on the same handle.  A handle
    that has fired or been cancelled is scheduled again. *)

val cancel : handle -> unit
(** Remove the event from the queue at once.  Idempotent; cancelling a
    fired event is a no-op. *)

val cancelled : handle -> bool
(** Cancelled and not re-armed since. *)

val clear : t -> unit
(** Cancel every pending event.  Virtual time and the seq counter are
    untouched. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains or virtual time would exceed
    [until] (events at exactly [until] still fire). *)

val run_before : t -> until:float -> unit
(** Half-open variant: fire every event with time strictly below
    [until], then advance the clock to [until].  This is the window
    drain of the partitioned engine ({!Pengine}) — events at exactly
    [until] belong to the next window, together with any cross-partition
    deliveries landing at that instant. *)

val step : t -> bool
(** Fire the single next event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of events scheduled but neither fired nor cancelled: the
    length of the queue, which holds no cancelled entries. *)

val dispatched : t -> int
(** Events fired so far — the per-partition work measure behind the
    events/sec-per-domain curves. *)

exception Too_many_events

val set_event_limit : t -> int -> unit
(** Safety valve for runaway simulations: {!run} raises
    {!Too_many_events} after this many dispatched events
    (default [max_int]). *)

val next_time : t -> float option
(** Scheduled time of the earliest queued event, if any. *)
