(** CPU model: multi-core weighted processor sharing with
    kernel-priority background load.

    Models what the paper's routers do with their control CPUs:

    - a {e pool} of core-equivalents (1.0 for the Pentium III and the
      XScale, >1 for the dual-core Xeon);
    - single-threaded {e processes} (the five XORP processes) that
      execute FIFO queues of jobs measured in CPU cycles — a process
      can use at most one core, so a pipeline only speeds up when cores
      are free (exactly the uni-core vs dual-core contrast of Fig. 3);
    - {e interrupt load} (cross-traffic packet arrivals), served before
      everything else;
    - a continuous {e kernel forwarding demand}, weighted much heavier
      than user processes (Linux gives forwarding priority over
      user-space BGP — paper §V.B) but not absolutely: under heavy BGP
      load forwarding loses a little throughput, reproducing the
      forwarding dip of Fig. 6(c).

    Allocation is weighted max-min (water-filling) over the capacity
    left after interrupts, recomputed whenever the runnable set
    changes; job completions are simulated exactly under
    piecewise-constant rates. *)

type t
type proc

val create : Bgp_engine.Clock.t -> hz:float -> pool:float -> t
(** The clock supplies time and completion events — pass
    {!Bgp_engine.Clock.of_engine} for simulated runs or a live clock
    for wall-time ones; the model itself is identical either way.
    [hz]: cycles per second of one core-equivalent.  [pool]: number of
    core-equivalents (need not be integral: 2.4 models a dual-core with
    hyper-threading gain).
    @raise Invalid_argument when [hz <= 0] or [pool <= 0]. *)

val add_proc : t -> ?weight:float -> string -> proc
(** Register a process (default weight 1.0). *)

val set_tracer : t -> ?process:string -> Bgp_trace.Tracer.t -> unit
(** Record structured scheduler events into [tracer]: process run/block
    instants (one track per process, named after it) and deduplicated
    core-occupancy counter samples (per-process service rates plus
    interrupt and forwarding allotments) on a ["cpu"] track. [process]
    names the trace process grouping the tracks (default ["bgpmark"]).
    Recording is observational only — scheduling decisions and virtual
    timings are unaffected. *)

val submit : t -> proc -> cycles:float -> (unit -> unit) -> unit
(** Enqueue a job; the callback fires (as an engine event) when the
    job's cycles have been executed.  Zero-cycle jobs complete at the
    next recompute instant. *)

val queue_length : t -> proc -> int
(** Jobs waiting or running on the process. *)

val set_interrupt_demand : t -> cycles_per_sec:float -> unit
(** Continuous interrupt work (e.g. per-packet RX interrupts x packet
    rate).  Served with absolute priority, capped at the pool. *)

val set_forwarding_demand : t -> ?weight:float -> cycles_per_sec:float -> unit -> unit
(** Continuous kernel forwarding work.  Default weight 8.0 (heavily
    favored over user processes). *)

val forwarding_ratio : t -> float
(** Fraction of the forwarding demand currently being served, in
    [0, 1]; 1.0 when there is no demand.  The forwarding engine turns a
    ratio < 1 into packet loss. *)

(** Cycle accounting between two sampling instants (for CPU-load
    traces à la Fig. 3/4/6). *)
type accounting = {
  acc_procs : (string * float) list;  (** cycles consumed per process *)
  acc_interrupt : float;
  acc_forwarding : float;
  acc_elapsed : float;                (** seconds covered *)
}

val take_accounting : t -> accounting
(** Consume and reset the accumulators. *)

val clock_hz : t -> float
