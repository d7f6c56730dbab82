(** The staged per-update transaction pipeline.

    The paper's metric — transactions per second — is a prefix-level
    route update fully processed through wire decode, import policy,
    Adj-RIB-In, the decision process, Loc-RIB/FIB installation, export
    policy, and (optionally) MRAI pacing.  This module makes that path
    an explicit, instrumented abstraction:

    - a {e stage} is declared by a {!spec}: which simulated
      {!Bgp_sim.Sched} process it runs on (or none, for pure protocol
      bookkeeping), a cost hook giving its simulated CPU cycles as a
      function of the batch's {!work} profile (the hooks are built from
      the architecture's cost model), and per-stage metrics (unit and
      batch counters plus a cycle histogram) registered in a shared
      {!Bgp_stats.Metrics} registry;
    - an {e architecture} is a declarative stage table plus an
      execution {!layout} — [Pipelined] runs each proc-bearing stage as
      its own scheduled job (the XORP multi-process structure), while
      [Fused_paced] charges all stages as one job on one process behind
      a fixed per-message pacing delay (the IOS black box);
    - all NLRI of one inbound UPDATE flow through as a single batch
      (one decision run per message — the paper's transaction
      definition).

    The protocol side effects (running the RIB machinery, installing
    FIB deltas, emitting announcements) are supplied per batch as
    {!hooks}; the pipeline owns sequencing, CPU charging, and cost
    accounting. *)

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

val stage_name : stage_id -> string
(** e.g. ["wire-decode"]. *)

(** The per-batch work profile: pure counts describing one inbound
    UPDATE's journey, filled in by the protocol hooks as the batch
    advances.  Cost hooks price stages from these counts alone, which
    keeps the stage table independent of protocol data structures. *)
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
          ({!prefixes}).  Stage costs ignore it by default, so legacy
          cost tables are unchanged. *)
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
  ?bytes:int -> ?announced:int -> ?withdrawn:int -> ?peers:int ->
  ?attr_groups:int -> ?src:int -> unit -> work
(** A fresh profile; every unlisted field starts at 0 ([src] at -1). *)

val prefixes : work -> int
(** [w_announced + w_withdrawn] — the batch's transaction count. *)

val fib_deltas : work -> int
(** [w_fib_installs + w_fib_replaces]. *)

(** Declarative description of one stage (see {!spec}). *)
type spec

val spec :
  ?proc:string ->
  ?cost:(work -> float) ->
  ?units:(work -> int) ->
  ?skip:(work -> bool) ->
  stage_id ->
  spec
(** [proc]: name of the scheduler process the stage's cycles are
    charged to; omitted for inline bookkeeping stages that consume no
    simulated CPU.  [cost] (default: 0 cycles) prices one batch.
    [units] (default: 0) is what the stage's unit counter advances by
    per batch.  [skip] (default: never) suppresses the stage for
    batches it does not apply to (e.g. FIB install when an update
    changed no forwarding entry). *)

(** How the stage table executes on the scheduler. *)
type layout =
  | Pipelined
      (** every proc-bearing stage is a separate scheduled job;
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
  ?trace_process:string ->
  spec list ->
  t
(** Build a pipeline from a stage table.  Scheduler processes are
    created here, one per distinct [proc] name in table order, and the
    per-stage metrics ([pipeline.<stage>.units], [.batches],
    [.cycles]) are registered in [metrics].

    With [tracer], sampled batches record structured spans: each
    proc-bearing stage becomes a slice on a track named after its
    process ([trace_process]/<proc>, shared with the scheduler's
    run/block instants), inline stages become zero-duration marks and
    whole-update submit-to-done latencies become async spans on an
    ["updates"] track.  Under [Fused_paced] the single job is one
    ["update-job"] slice with per-stage slices nested inside it,
    partitioned proportionally to the cycles charged.  Tracing is
    observational only: virtual timings, scheduling and metrics are
    identical with or without it.
    @raise Invalid_argument on a duplicate stage id, an empty table, or
    a [Fused_paced] table naming more than one process. *)

val submit : t -> work -> hooks -> unit
(** Route one batch through every stage. *)

val procs : t -> (string * Bgp_sim.Sched.proc) list
(** The scheduler processes backing the table, in creation order. *)

val find_proc : t -> string -> Bgp_sim.Sched.proc option

val stage_proc : t -> stage_id -> Bgp_sim.Sched.proc option
(** The process a stage runs on ([None] for inline stages or absent
    ids). *)

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
(** Table-ordered snapshot of every stage's counters. *)

val pp_stage_stats : Format.formatter -> stage_stat list -> unit
(** Render a breakdown table (units, batches, cycles, cycles/batch). *)
