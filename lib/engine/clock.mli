(** One clock over simulated and real time.

    Every layer that schedules work — FSM hold/keepalive timers, the
    CPU scheduler's job completions, MRAI pacing, fault restart timers,
    convergence drivers — goes through this capability interface rather
    than through a concrete event source.  Two implementations exist:

    - {!of_engine}: virtual time on the discrete-event heap;
    - {!Bgp_tcp.Event_loop.clock}: monotonic wall-clock time on the
      [select] loop.

    Both keep every event, posts included, on one {!Engine} heap, and a
    {!handle} is that heap's handle: cancelling and re-arming are heap
    operations, and the ordering clauses below hold on both clocks by
    construction.  The clocks differ only in how time advances.

    Semantics table (the contract both implementations satisfy):

    - time is in seconds, starts near 0, and never decreases;
    - events scheduled for the same instant fire in scheduling (FIFO)
      order;
    - a delay [<= 0] (or an absolute time in the past) schedules for
      the current instant — the callback never runs synchronously
      inside [schedule], only from a later pump;
    - {!cancel} is idempotent, a no-op after the event fired, and safe
      to call from inside the firing callback itself;
    - {!rearm} is exactly {!cancel} followed by {!schedule} of the same
      callback, on the same handle: the event takes the FIFO position
      of a fresh schedule at its new instant.  It works whether the
      handle is pending, fired or cancelled, and from inside the
      firing callback.  [rearm_at t h ~time] to a past [time] fires at
      [now t], after the events already due;
    - {!post} is a schedule at [now]: the thunk runs from a later pump,
      after the events already due; posting from inside a callback is
      allowed and preserves order. *)

type handle = Engine.handle
(** A scheduled event, cancellable until it fires and re-armable at
    any time. *)

type t

val make :
  label:string ->
  now:(unit -> float) ->
  schedule_at:(time:float -> (unit -> unit) -> handle) ->
  post:((unit -> unit) -> unit) ->
  run_window:(cond:(unit -> bool) -> step:float -> bool) ->
  t
(** Implementor-side constructor; see {!of_engine} and
    {!Bgp_tcp.Event_loop.clock} for the two canonical instances.
    [schedule_at] must return a handle on a heap whose time never runs
    ahead of [now]. *)

val of_engine : Engine.t -> t
(** The engine as a clock: virtual time, and a [run] pump that always
    consumes the whole requested window (so a simulation's event order
    never depends on the pump's exit condition).  [post] is
    [schedule ~delay:0.0]. *)

val label : t -> string
(** ["sim"] or ["live"] for the canonical implementations; used in
    diagnostics only. *)

val now : t -> float
(** Current time, seconds.  Virtual on a simulated clock, monotonic
    elapsed wall-clock on a live one. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. max 0. delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; a [time] in the past fires at [now]. *)

val rearm : t -> handle -> delay:float -> unit
(** [rearm t h ~delay] moves [h]'s event to [now t +. max 0. delay]:
    {!cancel} then {!schedule}, without a new handle. *)

val rearm_at : t -> handle -> time:float -> unit
(** Absolute-time variant; a [time] in the past fires at [now t]. *)

val cancel : handle -> unit
(** Idempotent; cancelling a fired event is a no-op, including from
    inside the firing callback. *)

val cancelled : handle -> bool
(** Cancelled and not re-armed since. *)

val post : t -> (unit -> unit) -> unit
(** Run a thunk from a later pump, after the events already due
    (breaks reentrancy). *)

val run : t -> cond:(unit -> bool) -> step:float -> bool
(** Pump the clock for (up to) [step] seconds of its own time and
    return [cond ()].  A simulated clock processes the whole window at
    virtual speed; a live clock sleeps/selects through it in real time
    and may return as soon as [cond] holds.  [cond] must be free of
    side effects: implementations may evaluate it at different
    granularities. *)
