(** Allocation probe for the CPU scheduler's per-message step.

    A steady chain of zero-cycle jobs runs through a 4-process pipeline
    on a simulated engine: each completion submits the job to the next
    process and the last process feeds the first, so every job costs
    one submit, one completion and two recomputes.  The unit test
    bounds the result and [bench --smoke] gates it against
    [bench/sched_alloc_baseline.txt]. *)

val words_per_job : jobs:int -> float
(** Minor-heap words allocated per job over [jobs] jobs, after a
    1000-job warm-up; the engine's completion events are included. *)
