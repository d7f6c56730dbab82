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
    timers.

    The pump works in turns.  A turn first drains the heap: it fires
    what is due, re-reads the time and fires again, so a chain of
    zero-delay events runs within one turn; a fixed pass bound keeps a
    callback that re-posts itself forever from starving the
    descriptors.  Then it runs each dirty link's flush ({!at_flush})
    once, and last it waits in [select] and dispatches the ready
    descriptors.  The flushes also run before the pump returns. *)

type t

val create : unit -> t
(** A new loop.  It sets SIGPIPE to ignored for the whole process: a
    write to a peer that has closed then fails with [EPIPE] in the
    transport that made it, which tears that link down, instead of
    killing the process. *)

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

val at_flush : t -> (unit -> unit) -> unit
(** Run the callback once, at this turn's flush: after the drain and
    before [select], or before the pump returns.  A transport calls it
    when a send first dirties a link, and writes the link's queued
    output from it. *)

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
