(** A unified metrics registry: named monotonic counters and duration
    histograms.

    One registry instance is shared by everything that instruments a
    single simulated router ({!Bgp_rib.Rib_manager}, the router, the
    update-pipeline stages); each component registers its metrics
    {e exactly once} at construction, and a phase boundary resets the
    whole registry atomically ({!reset_all}) so no window counter can
    be missed.

    Counters count discrete events (updates, decisions, transactions);
    histograms observe per-batch magnitudes (simulated CPU cycles, or
    any duration-like quantity) and retain count / sum / min / max. *)

type t
(** A registry. *)

type counter
type histogram
type gauge

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Register a monotonic counter under [name].
    @raise Invalid_argument if [name] is already registered. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter.  A counter is a plain int
    with one writing domain: a partitioned run ({!Bgp_sim.Pengine})
    reads it from the coordinating domain only between windows, after
    the barrier.
    @raise Invalid_argument if [by] is negative (counters are monotonic
    between resets). *)

val add : counter -> int -> unit
(** [add c n] is [incr ~by:n c] without the optional argument's box:
    for per-prefix hot paths that must not allocate. *)

val value : counter -> int

(** {1 Histograms} *)

val histogram : t -> string -> histogram
(** Register a histogram under [name].
    @raise Invalid_argument if [name] is already registered. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
(** 0 when empty. *)

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> int) -> gauge
(** Register a sampled gauge under [name]: the closure reads external
    state (e.g. the shared attribute arena) on demand.  Gauges hold no
    state of their own, so {!reset_all} does not touch them.
    @raise Invalid_argument if [name] is already registered. *)

(** {1 Reading by name}

    For the module that registered [name], which keeps the name to
    itself and exports a reader built on these.  A name nothing
    registered, or registered as another kind, reads as zero. *)

val counter_value : t -> string -> int

val histogram_summary : t -> string -> int * float * float
(** [(count, mean, max)]. *)

val gauge_value : t -> string -> int
(** Sampled now; constant in a {!freeze}d copy. *)

(** {1 Registry-wide operations} *)

val reset_all : t -> unit
(** Zero every counter and histogram (a measurement-phase boundary).
    Registration is preserved; gauges, being sampled, are unaffected. *)

val freeze : t -> t
(** A copy of the registry as it stands: counters and histograms with
    their current values, each gauge turned into the constant it
    samples now.  Nothing done to [t] afterwards, {!reset_all}
    included, reaches the copy: a benchmark phase's numbers stay as
    they were when the phase ended. *)

val counters : t -> (string * int) list
(** All counters with current values, in registration order. *)

val histograms : t -> (string * (int * float)) list
(** All histograms as [(name, (count, sum))], in registration order. *)

val gauges : t -> (string * int) list
(** All gauges, sampled now, in registration order. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of every metric, in registration order. *)

val to_json : t -> Json.t
(** Every metric in registration order as one JSON object keyed by
    metric name — counters as [{kind,value}], histograms as
    [{kind,count,sum,mean,min,max}], gauges sampled now.  The
    machine-readable stand-in for a Prometheus scrape endpoint. *)
