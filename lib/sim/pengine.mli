(** Partitioned discrete-event engine: P per-partition {!Engine}
    queues, coordinated by a conservative-lookahead window barrier.
    Partition 0 is drained by the domain that calls {!run_until};
    partition k >= 1 by worker k of one process-wide crew of worker
    domains.

    {b Safe horizon.}  Let L be the minimum latency over
    cross-partition links (every such link calls
    {!register_cross_latency}).  An event a partition executes at time
    t can influence another partition no earlier than t + L, because
    the only cross-partition interaction is a mailbox {!post} whose
    delivery time comes from a link of latency >= L.  So within a
    window [W, W + L) every partition drains independently; at the
    barrier the mailboxes are flushed into the target queues in
    deterministic (source partition, send order) order, and the next
    window starts.  The synchronization is exact: no event is delivered
    late or reordered against anything it could causally affect, and a
    run's event schedule is a pure function of the model — never of
    thread timing.

    {b Worker crew.}  The crew serves every engine in the process.  It
    is spawned on the first window of a multi-partition {!run_until}
    (never by {!create}), grows to the largest [parts - 1] asked for,
    and its domains live for the rest of the process; a parked worker
    does not keep the process from exiting.  At each barrier both
    sides spin briefly, then park on a condition variable.  They spin
    only when the engine's [parts] domains fit in
    [Domain.recommended_domain_count ()]; an oversubscribed engine parks
    at once, so no spinner holds the core the domain it waits for
    needs.

    With [parts = 1] there are no mailboxes, no worker domains, and
    {!run_until} is literally [Engine.run ~until] on the single
    partition: bit-identical to the unpartitioned engine. *)

type t

val create : ?parts:int -> unit -> t
(** Default 1 partition.  @raise Invalid_argument when [parts < 1]. *)

val part : t -> int -> Engine.t
(** Partition [i]'s private engine.  Everything living on partition [i]
    (routers, timers, same-partition channels) schedules here, and only
    the domain draining partition [i] may touch it during a window. *)

val now : t -> float
(** Virtual time.  All partition clocks agree whenever the engine is
    parked (between {!run_until} calls / at barriers). *)

val register_cross_latency : t -> float -> unit
(** Every cross-partition link must register its latency; the minimum
    becomes the lookahead window.  @raise Invalid_argument on a
    non-positive latency — a zero-latency cross-partition link would
    collapse the safe horizon. *)

val post : t -> src:int -> dst:int -> time:float -> (unit -> unit) -> unit
(** Schedule [fn] at [time] on partition [dst].  From the domain
    draining [src] during a window this is the {e only} legal way to
    reach another partition, and [time] must be >= now + the registered
    lookahead (true for any event derived from a registered link).
    With [src = dst] it is a plain local [schedule_at]. *)

val set_worker_init : t -> (int -> unit) -> unit
(** Hook run by worker k (for partitions 1..P-1) once per {!run_until}
    call, before its first window of that call — e.g. to bind the
    domain to its partition's attribute-arena shard.  Partition 0 is
    drained by the calling domain, which keeps its own bindings. *)

exception Partition_failed of int * exn
(** An event callback (or the worker-init hook) raised on the given
    partition; re-raised by {!run_until} on the calling domain once
    every partition has finished the window.  The worker that caught
    it stays in the crew. *)

val run_until : t -> float -> unit
(** Drive all partitions to virtual time [t] (events at exactly [t]
    still fire, as with [Engine.run ~until]).  Parks with every
    partition clock at [t] and all mailboxes flushed-or-parked; posts
    emitted by the final window are delivered at the start of the next
    call, strictly in their future.

    A multi-partition call holds the crew until it returns, so only one
    runs at a time in the process.
    @raise Invalid_argument when another multi-partition [run_until] is
    running, on any domain: a concurrent call from another domain, or
    a nested one from an event callback (which surfaces as
    {!Partition_failed} of the outer call). *)

val dispatched : t -> int -> int
(** Events fired by partition [i] so far — the per-domain events/sec
    numerator. *)

