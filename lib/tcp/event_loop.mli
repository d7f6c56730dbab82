(** A small single-threaded [select]-based event loop with wall-clock
    timers — the real-world counterpart of the simulator's engine, used
    to drive BGP sessions over actual sockets through {!clock}.

    Timers ride an embedded {!Bgp_sim.Engine} heap whose virtual time
    is only ever advanced to elapsed wall-clock time, so live timer
    semantics are the simulator's by construction: deadline order with
    FIFO tie-breaks at equal deadlines, and idempotent cancellation.
    Time is monotonized (never decreases even if [gettimeofday] steps
    backwards), so a clock step cannot starve or spuriously fire armed
    timers. *)

type t

val create : unit -> t

val now : t -> float
(** Monotonized seconds since {!create} — the loop's time axis. *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Invoke the callback whenever the descriptor is readable.  Replaces
    any previous watcher for the descriptor. *)

val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Invoke the callback whenever the descriptor is writable — armed by
    transports with queued output, and expected to
    {!unwatch_write} once the queue drains (a watched-and-writable
    descriptor otherwise spins the loop). *)

val unwatch : t -> Unix.file_descr -> unit
(** Drop both the read and write watchers of the descriptor. *)

val unwatch_write : t -> Unix.file_descr -> unit

val after : t -> float -> (unit -> unit) -> unit -> unit
(** [after t delay fn] schedules [fn] in [delay] wall-clock seconds and
    returns a cancel thunk.  Cancellation follows the
    {!Bgp_engine.Clock} contract exactly as {!Bgp_sim.Engine.cancel}
    does: it is idempotent, a no-op once the timer has fired, and safe
    to call from inside the firing callback itself.  Timers due in the
    same loop iteration fire in deadline order; timers sharing a
    deadline fire in the order they were armed. *)

val post : t -> (unit -> unit) -> unit
(** Run a thunk on the next loop iteration (breaks reentrancy). *)

val clock : t -> Bgp_engine.Clock.t
(** This loop as a {!Bgp_engine.Clock}: monotonized wall-clock [now],
    timers on the shared engine-heap semantics, [post] onto the loop,
    and a [run] pump that selects on the watched descriptors while
    waiting (returning as soon as the condition holds). *)

val run : t -> until:(unit -> bool) -> timeout:float -> bool
(** Pump the loop until [until ()] is true (returns [true]) or
    [timeout] wall-clock seconds elapse (returns [false]). *)

val stop_watching_all : t -> unit
(** Drop every watcher and queued thunk, and cancel every armed timer.
    Outstanding cancel thunks and clock handles stay usable: a handle
    re-armed afterwards fires on this loop. *)
