(** Periodic CPU-load sampling — the instrumentation behind the paper's
    Figures 3, 4 and 6.

    Attach a tracer to a scheduler and it records, once per interval of
    virtual time, the per-process CPU load (percent of one core, so a
    multi-core system can exceed 100 in aggregate), the interrupt and
    kernel-forwarding load, and the achieved forwarding ratio. *)

type sample = {
  s_time : float;                    (** end of the sampled interval *)
  s_procs : (string * float) list;   (** percent of one core, per process *)
  s_interrupt : float;               (** percent of one core *)
  s_forwarding : float;              (** percent of one core *)
  s_fwd_ratio : float;               (** achieved/demanded forwarding, 0-1 *)
}

type t

val start : Bgp_engine.Clock.t -> Sched.t -> ?interval:float -> unit -> t
(** Begin sampling every [interval] clock seconds (default 1.0) —
    virtual seconds on a simulated clock, wall seconds on a live one.
    Resets the scheduler's accounting accumulators. *)

val stop : t -> unit
(** Take a final partial sample and stop. Idempotent. *)

val samples : t -> sample list
(** Chronological. *)

val total_user_percent : sample -> float
(** Sum of the per-process loads of a sample. *)

val to_rows : t -> (string * (float * float) list) list
(** Per-series [(name, [(time, percent); ...])] view: one series per
    process plus ["interrupts"] and ["forwarding"] — the layout the
    figure printers consume. *)
