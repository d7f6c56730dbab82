(** The benchmark harness (paper Fig. 1): two speakers, one router
    under test, three phases, transactions-per-second measured over the
    scenario's relevant phase only.

    Topology on one {!Bgp_engine.Clock}:
    {v  Speaker 1 (AS 65001) <---> Router (AS 65000) <---> Speaker 2 (AS 65002) v}

    The same harness runs in two modes: [Sim] (simulated channels on a
    discrete-event engine, virtual time, fully deterministic) and
    [Live] (real loopback TCP sockets on a select loop, wall-clock
    time).  Scenario code, verification, and the Loc-RIB fingerprint
    are mode-independent; {!cross_validate} asserts it.

    Phases:
    + Speaker 1 injects the routing table with 3-hop AS paths;
    + (scenarios 5-8) Speaker 2 connects and receives the router's full
      table;
    + the scenario's incremental activity (withdrawals, or Speaker 2's
      competing announcements: 6-hop paths that lose in scenarios 5/6,
      1-hop paths that win in 7/8).

    Setup phases always use large packets so that setup time — which is
    excluded from the metric anyway — stays small.

    Every scenario is a short script of {!Testbed.phase}s on one
    {!Testbed} rig, carrying its own verification. *)

type mode = Testbed.mode =
  | Sim  (** simulated channels, virtual time, deterministic *)
  | Live  (** loopback TCP on a {!Bgp_tcp.Event_loop}, wall-clock time *)

type config = {
  mode : mode;
  table_size : int;          (** prefixes in the injected table *)
  large_packing : int;       (** prefixes per "large" UPDATE (paper: 500) *)
  cross_traffic : float;     (** offered forwarding load, Mbps (0 = none) *)
  seed : int;                (** table generation seed *)
  trace_interval : float option;
      (** sample CPU load every n virtual seconds (figures 3/4/6) *)
  varied_paths : bool;
      (** inject an Internet-shaped table (2-6 hop paths, mixed
          origins/MEDs via {!Bgp_speaker.Table_io.synthesize}) instead
          of the paper's uniform-path workload — an ablation knob *)
  mrai : float option;
      (** enable MinRouteAdvertisementInterval batching on the router
          (RFC 4271 section 9.2.1.1) — an ablation knob, off in the
          paper's XORP setup *)
  timeout : float;
      (** clock-seconds guard per run — virtual in [Sim] (the default
          is effectively unbounded), wall-clock in [Live] (set a small
          real bound, e.g. 120) *)
  fault_rounds : int;
      (** fault injections per adversarial run (scenarios 9-10, 14) *)
  table_file : string option;
      (** load the Phase-1 table from a file — bgpmark text
          ({!Bgp_speaker.Table_io}) or an MRT TABLE_DUMP_V2 dump
          ({!Bgp_mrt.Mrt}), auto-detected — instead of synthesizing;
          overrides [table_size] with the file's entry count.  For
          scenario 13 the same file also supplies the BGP4MP update
          trace.  Scenarios 5/6 re-announce the table one hop longer
          than its longest AS path (at least 8 hops), so they lose to
          any loaded route.  Scenarios 7/8 re-announce it with 1-hop
          paths, which cannot beat a loaded 1-hop route: a table
          holding one fails them ("every prefix was replaced"). *)
  damping : Bgp_rib.Damping.config option;
      (** RFC 2439 route flap damping on the router under test.  [None]
          (the default) leaves the update path byte-identical to a
          damping-free build; scenario 14 forces
          {!Bgp_rib.Damping.test_config} when unset. *)
  replay_speedup : float option;
      (** scenario 13 pacing: [None] replays the update trace unpaced
          (back-to-back, throughput mode); [Some x] honors the recorded
          inter-arrival times divided by [x] *)
  replay_events : int option;
      (** scenario 13 synthesized-trace length; [None] (the default)
          picks the generator's default (table_size/5, at least 20) *)
  churn : Bgp_speaker.Subscriber.config option;
      (** scenario 16 workload shape.  [None] (the default) derives
          {!Bgp_speaker.Subscriber.default} with [table_size]
          subscribers and this config's [seed]; an explicit config
          overrides [table_size] with its subscriber count *)
  tracer : Bgp_trace.Tracer.t option;
      (** record structured trace events (pipeline stage spans,
          scheduler occupancy, FSM transitions, fault fates) for the
          whole run; each (arch, scenario) cell traces under the
          process name ["<arch>/scenario-<id>"].  Observational only:
          results are identical with tracing on or off. *)
}

val default_config : config
(** [Sim] mode, 10000 prefixes, packing 500, no cross-traffic, seed 42,
    no trace, timeout 500000 s, 5 fault rounds. *)

(** The reports hold only what no registry or phase does.  The fault
    counters and re-convergence times are read from [result.metrics]
    with the {!Bgp_faults.Faults} readers, the damping numbers with the
    {!Bgp_rib.Damping} readers (present when [result.used.damping] is
    set: scenario 14, or any run with [config.damping]), and the
    failover sweep's latency with {!sweep_latency_in}. *)

type fault_report = {
  fr_expected : (int * int) list;
      (** RFC 4271 (code, subcode) predicted per injected corruption *)
  fr_answered : (int * int) list;
      (** (code, subcode) of every NOTIFICATION the router transmitted *)
}

type churn_report = {
  cr_injection : Testbed.phase;
      (** phase A: the rate-limited batch injection of every
          subscriber ([result.used.table_size] of them) *)
  cr_churn : Testbed.phase;
      (** phase B: one transaction per session event *)
  cr_sessions_up_end : int;
      (** oracle up-count when failover hits — the expected FIB size
          pre-sweep and the expected withdraw-sweep size *)
  cr_failover_s : float;
      (** peer loss to the last withdrawal landing at speaker 2 *)
}

val sweep_latency_in : Bgp_stats.Metrics.t -> int * float * float
(** (count, mean, max) of scenario 16's per-withdrawal failover
    latency, one observation per withdrawal landing at speaker 2, in
    clock seconds. *)

type result = {
  arch_name : string;
  scenario : Scenario.t;
  used : config;
  tps : float;              (** the Table III metric *)
  measured_prefixes : int;  (** transactions in the measured phase *)
  measure_seconds : float;
      (** clock duration of the measured phase (virtual or wall) *)
  setup_seconds : float;    (** phases excluded from the metric *)
  trace : Bgp_sim.Trace.sample list;
      (** CPU-load samples over the whole run (empty without
          [trace_interval]) *)
  fib_size_end : int;
  stage_stats : Bgp_pipeline.Pipeline.stage_stat list;
      (** per-stage unit/batch/cycle breakdown over the measured phase *)
  msgs_rx : int;  (** wire messages received in the measured phase *)
  msgs_tx : int;  (** wire messages sent in the measured phase *)
  fwd_ratio_min : float;
      (** worst forwarding ratio observed (1.0 = no loss) *)
  metrics : Bgp_stats.Metrics.t;
      (** the measured phase's frozen registry ({!Testbed.phase}):
          the one source of every counter the reports print.  For
          scenario 16 it is frozen at run end, so it covers phase B
          and the failover; [churn --metrics] and the JSON
          [churn.metrics] render it — the stand-in for the BNG
          playbook's Prometheus targets *)
  faults : fault_report option;
      (** present for adversarial runs (scenarios 9-10, 14) only *)
  churn : churn_report option;  (** present for scenario 16 only *)
  locrib_fp : string;
      (** Loc-RIB digest ({!Bgp_rib.Loc_rib.fingerprint}) at run end;
          equal across sim and live runs of the same scenario/seed.
          Scenario 16 fingerprints at peak state — after churn, before
          the failover empties the table — so the crosscheck compares a
          non-trivial RIB *)
  verified : (unit, string) Stdlib.result;
      (** scenario-specific semantic checks (see DESIGN.md §6) *)
}

val run : ?config:config -> Bgp_router.Arch.t -> Scenario.t -> result
(** Run one (architecture, scenario) cell.  Deterministic for a given
    config.  Adversarial scenarios (9-10) run [fault_rounds] rounds of
    fault → NOTIFICATION/teardown → reconnect → full re-announcement,
    so the measured phase covers [fault_rounds * table_size]
    transactions and [faults] is populated.

    Scenario 13 loads the MRT RIB from [table_file] (or synthesizes a
    dump in memory when unset) through Phase 1, then replays the
    dump's update trace through speaker 1 — unpaced or at
    [replay_speedup] × recorded timing — and verifies the final FIB and
    speaker 2's view against the trace's folded announce/withdraw
    effects; with [config.damping] set, reuse re-injections add
    transactions, so only their floor is checked.  Scenario 14 is the scenario-10 flap storm with damping
    forced on ({!Bgp_rib.Damping.test_config} unless [config.damping]
    overrides): from the second round on the re-announcements are
    suppressed, and the run completes only once the reuse timer has
    re-injected every withheld route (its damping numbers are in
    [metrics]).

    Scenario 16 runs the subscriber-edge churn workload ([config.churn]
    or its [table_size]-derived default): speaker 1 batch-injects the
    /32 pool against a [max_prefixes] limit of exactly the pool size
    with MRAI forced on (50 ms unless [config.mrai] overrides), the
    Markov churn plan replays as timed announce/withdraw/resync events,
    and finally speaker 1's link is cut — the full withdraw sweep is
    timed end-to-end as it drains at speaker 2.  Every phase verifies
    against the {!Bgp_speaker.Subscriber} plan oracle and [churn] is
    populated.
    @raise Failure if a phase fails to converge within the timeout
    (with a diagnostic of what was stuck). *)

val pp_result : Format.formatter -> result -> unit

val arena_json : unit -> Bgp_stats.Json.t
(** Snapshot of the process-global attribute arena
    ({!Bgp_route.Attrs.Interned.stats}): intern calls, hits, hit rate,
    live handles and approximate bytes saved.
    Included in JSON payloads only — rendered tables never show it. *)

val result_json : result -> Bgp_stats.Json.t
(** Machine-readable form of one run — the per-cell record behind every
    [--json] CLI flag (fault report, mode, Loc-RIB fingerprint, and
    verification status included). *)

(** {1 Sim-vs-live cross-validation} *)

type crosscheck = {
  xc_arch : string;
  xc_scenario : Scenario.t;
  xc_sim : result;
  xc_live : result;
  xc_fingerprints_match : bool;
  xc_verdicts_match : bool;
}

val cross_validate :
  ?config:config -> ?live_timeout:float -> Bgp_router.Arch.t -> Scenario.t ->
  crosscheck
(** Run the same (architecture, scenario, seed) cell in both modes and
    compare routing outcomes.  Timings are expected to differ; the
    Loc-RIB fingerprints and the verification verdicts must not.
    [live_timeout] (default 120 s) bounds the wall-clock leg. *)

val crosscheck_ok : crosscheck -> bool
(** Fingerprints equal, verdicts agree, and the sim leg verified. *)

val pp_crosscheck : Format.formatter -> crosscheck -> unit
val crosscheck_json : crosscheck -> Bgp_stats.Json.t
