(** A small single-threaded [select]-based event loop — the real-world
    counterpart of the simulator's engine, used to drive BGP sessions
    over actual sockets.  It is a {!Bgp_engine.Clock} ({!clock}) plus
    file-descriptor watchers.

    Every event — timers, posts, connection notifications — goes on
    one embedded {!Bgp_engine.Engine} heap whose virtual time is only
    ever advanced to elapsed wall-clock time, so live event semantics
    are the simulator's by construction: deadline order with FIFO
    tie-breaks at equal deadlines, a post after the events already
    due, and idempotent cancellation.  Time is
    monotonized (never decreases even if [gettimeofday] steps
    backwards), so a clock step cannot starve or spuriously fire armed
    timers. *)

type t

val create : unit -> t

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

val clock : t -> Bgp_engine.Clock.t
(** This loop as a {!Bgp_engine.Clock}: monotonized wall-clock [now]
    (seconds since {!create}), events on the loop's heap, and a [run]
    pump that selects on the watched descriptors while waiting and
    returns as soon as the condition holds.  Every call gives a view
    of the same loop. *)

val stop_watching_all : t -> unit
(** Drop every watcher and cancel every pending event, posts included.
    Outstanding clock handles stay usable: a handle re-armed afterwards
    fires on this loop. *)
