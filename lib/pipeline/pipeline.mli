(** The staged per-update transaction pipeline.

    The paper's metric — transactions per second — is a prefix-level
    route update fully processed through wire decode, import policy,
    Adj-RIB-In, the decision process, Loc-RIB/FIB installation, export
    policy, and (optionally) MRAI pacing.  This module makes that path
    an explicit, instrumented abstraction:

    - the pipeline owns what every architecture shares: the order of
      the seven stages, what each stage's unit counter counts (prefixes,
      policy fan-out, candidates, FIB deltas, announcements,
      MRAI-held), and the one skip rule (an update that changed no
      forwarding entry skips [Fib_install]).  Per-stage metrics (unit
      and batch counters plus a cycle histogram) are registered in a
      shared {!Bgp_stats.Metrics} registry;
    - an {e architecture} gives, for each stage, a {!placement} —
      [Inline] (pure protocol bookkeeping, no simulated CPU) or the
      {!Bgp_sim.Sched} process it runs on with a cost hook pricing one
      batch's {!work} profile in cycles — plus an execution {!layout}:
      [Pipelined] runs each stage with a process as its own scheduled
      job (the XORP multi-process structure), while [Fused_paced]
      charges all stages as one job on one process behind a fixed
      per-message pacing delay (the IOS black box);
    - all NLRI of one inbound UPDATE flow through as a single batch
      (one decision run per message — the paper's transaction
      definition).

    The protocol side effects (running the RIB machinery, installing
    FIB deltas, emitting announcements) are supplied per batch as
    {!hooks}; the pipeline owns sequencing, CPU charging, and cost
    accounting.  Work off the update path follows a stage's placement
    through {!run_on}; with every stage [Inline] there is no process. *)

(** The seven stages of the per-update transaction path, in pipeline
    order. *)
type stage_id =
  | Wire_decode     (** message receive: TCP/parse per byte and prefix *)
  | Import_policy   (** inbound policy evaluation fan-out *)
  | Adj_rib_in      (** Adj-RIB-In maintenance (runs the RIB machinery) *)
  | Decision        (** best-route selection + announcement building *)
  | Fib_install     (** Loc-RIB commit pushed to the FIB *)
  | Export_policy   (** advertisement emission toward peers *)
  | Mrai_pacing     (** RFC 4271 §9.2.1.1 outbound batching *)

(** The per-batch work profile: pure counts describing one inbound
    UPDATE's journey, filled in by the protocol hooks as the batch
    advances.  Cost hooks and unit counters read these counts alone,
    which keeps stage tables independent of protocol data
    structures. *)
type work = {
  mutable w_bytes : int;          (** wire size of the UPDATE *)
  mutable w_announced : int;      (** NLRI count *)
  mutable w_withdrawn : int;      (** withdrawn-routes count *)
  mutable w_peers : int;          (** import fan-out (attached peers) *)
  mutable w_attr_groups : int;
      (** distinct attribute sets in the batch: 1 for the shared NLRI
          handle (+1 when withdrawals ride along).  The attr-group
          batched path does per-attribute work (interning, loop
          guards) once per group while TPS stays prefix-level
          ({!prefixes}).  No cost hook prices it. *)
  mutable w_src : int;
      (** source peer id, or -1 when not peer-originated (trace
          annotation only; never priced) *)
  mutable w_candidates : int;     (** routes considered by the decision *)
  mutable w_loc_changes : int;    (** Loc-RIB mutations *)
  mutable w_fib_installs : int;   (** FIB add/withdraw deltas *)
  mutable w_fib_replaces : int;   (** FIB entry replacements *)
  mutable w_announcements : int;  (** outbound advertisements produced *)
  mutable w_mrai_buffered : int;  (** advertisements held by MRAI pacing *)
}

val work :
  bytes:int -> announced:int -> withdrawn:int -> peers:int ->
  attr_groups:int -> src:int -> work
(** A fresh profile; the fields the stages fill in start at 0. *)

val prefixes : work -> int
(** [w_announced + w_withdrawn] — the batch's transaction count. *)

val policy_fanout : work -> int
(** [prefixes * w_peers] — the import-policy stage's unit count. *)

(** Where one stage runs. *)
type placement =
  | Inline
      (** protocol bookkeeping on the caller's path: no process, no
          simulated CPU *)
  | Proc of string * (work -> float)
      (** the named scheduler process, charged the given cycles per
          batch *)

(** How the stage table executes on the scheduler. *)
type layout =
  | Pipelined
      (** every stage with a process is a separate scheduled job;
          consecutive batches overlap across processes (XORP) *)
  | Fused_paced of float
      (** all stages of a batch are charged as one job on the single
          named process, and each batch waits the given pacing delay
          (seconds) before dispatch (IOS) *)

(** Protocol callbacks for one batch.  [on_begin] runs when a stage is
    dispatched (before its cycles are charged) — this is where work
    that prices later stages happens; [on_finish] runs when the
    stage's cycles have executed; [on_done] runs after the last
    stage. *)
type hooks = {
  on_begin : stage_id -> unit;
  on_finish : stage_id -> unit;
  on_done : unit -> unit;
}

type t

val create :
  clock:Bgp_engine.Clock.t ->
  sched:Bgp_sim.Sched.t ->
  metrics:Bgp_stats.Metrics.t ->
  layout:layout ->
  ?tracer:Bgp_trace.Tracer.t ->
  trace_process:string ->
  (stage_id -> placement) ->
  t
(** Build a pipeline from a stage table, a total function over the
    seven stages.  Scheduler processes are created here, one per
    distinct process name in stage order, and the per-stage metrics
    ([pipeline.<stage>.units], [.batches], [.cycles]) are registered in
    [metrics].

    With [tracer], sampled batches record structured spans: each stage
    with a process becomes a slice on a track named after its process
    ([trace_process]/<proc>, shared with the scheduler's run/block
    instants), inline stages become zero-duration marks and
    whole-update submit-to-done latencies become async spans on an
    ["updates"] track.  Under [Fused_paced] the single job is one
    ["update-job"] slice with per-stage slices nested inside it,
    partitioned proportionally to the cycles charged.  Tracing is
    observational only: virtual timings, scheduling and metrics are
    identical with or without it.
    @raise Invalid_argument on a [Fused_paced] table naming more or
    fewer than one process. *)

val submit : t -> work -> hooks -> unit
(** Route one batch through every stage. *)

val run_on : t -> stage_id -> cycles:float -> (unit -> unit) -> unit
(** Work off the update pipeline that follows a stage's placement: a
    job of [cycles] on the stage's process, whose completion runs the
    callback, or the callback at once when the stage is [Inline]. *)

val idle : t -> bool
(** No batch queued, paced, or holding CPU on any stage process. *)

(** A per-stage accounting snapshot (from the shared registry). *)
type stage_stat = {
  st_stage : string;
  st_proc : string option;
  st_units : int;    (** stage-specific unit count (prefixes, deltas, ...) *)
  st_batches : int;  (** batches that executed the stage *)
  st_cycles : float; (** total simulated CPU cycles charged *)
}

val stage_stats : t -> stage_stat list
(** Stage-ordered snapshot of every stage's counters. *)

val pp_stage_stats : Format.formatter -> stage_stat list -> unit
(** Render a breakdown table (units, batches, cycles, cycles/batch). *)
