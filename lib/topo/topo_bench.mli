(** The multi-router scenarios (11, 12, and 15) and their reporting.

    Scenario 11 — {e convergence}: one origin announces its prefix into
    an established graph, the network runs to quiescence, then the
    origin withdraws and the network drains again.  Reported per
    topology size, so a sweep exposes how convergence time and update
    amplification grow with the graph.  It is {!run_scale} on one
    simulation domain, rendered by {!render_convergence_runs}.

    Scenario 12 — {e link failure}: every node originates, the network
    converges, then one link is cut (drop taps + channel close, as in
    the fault scenarios) and the re-convergence is measured together
    with the path-hunting statistics — how many Loc-RIB changes each
    (node, prefix) pair went through while healing.

    Both runs verify the final state against a pure oracle: full
    component reachability under [Transit], the {!Gao_rexford.reachable}
    valley-free fixed point under [Gao_rexford].

    Scenario 15 — {e partitioned scale}: the same single-origin episode
    on large graphs (1k–10k nodes), run on [domains] parallel
    simulation partitions ({!Net.create}).  Reports per-domain event
    throughput and a digest of every node's converged Loc-RIB and FIB,
    which must be independent of the domain count. *)

type link_failure_run = {
  lf_kind : Topology.kind;
  lf_n : int;
  lf_seed : int;
  lf_mode : Net.policy_mode;
  lf_arch : string;
  lf_cut_u : int;
  lf_cut_v : int;
  lf_partitioned : bool;   (** the cut disconnects the graph *)
  lf_baseline_s : float;   (** full-origination convergence before the cut *)
  lf_heal_s : float;       (** re-convergence after the cut *)
  lf_affected : int;       (** prefixes that saw any Loc-RIB change while healing *)
  lf_max_explored : int;   (** max path-exploration count over (node, prefix) *)
  lf_mean_explored : float;(** mean over the explored (node, prefix) pairs *)
  lf_withdrawn_rx : int;   (** prefixes withdrawn in UPDATEs during healing *)
  lf_verified : (unit, string) result;
}

val run_link_failure :
  ?mode:Net.policy_mode ->
  ?seed:int ->
  ?cut:int * int ->
  ?tracer:Bgp_trace.Tracer.t ->
  kind:Topology.kind ->
  n:int ->
  unit ->
  link_failure_run
(** Scenario 12, every node a Pentium III.  Without [cut], fails the
    first edge whose removal keeps the graph connected (falling back to
    the first edge on trees, where the run then verifies the
    partition's unreachability instead of healing).
    @raise Invalid_argument if [cut] names a non-edge. *)

type scale_run = {
  sc_kind : Topology.kind;
  sc_n : int;
  sc_seed : int;
  sc_mode : Net.policy_mode;
  sc_arch : string;          (** architecture name *)
  sc_domains : int;
  sc_edges : int;
  sc_cut_links : int;        (** cross-domain links (mailbox channels) *)
  sc_domain_sizes : int array;
  sc_announce_s : float;     (** simulated announce-convergence time *)
  sc_withdraw_s : float;
  sc_announce_updates : int; (** UPDATEs received network-wide, announce episode *)
  sc_withdraw_updates : int;
  sc_msgs_tx : int;          (** total messages sent over the whole run *)
  sc_wall_s : float;         (** wall clock, establish through withdraw *)
  sc_domain_events : int array;  (** events dispatched per domain *)
  sc_reached : int;
  sc_fingerprint : string;
      (** hex digest over every node's Loc-RIB and FIB after the
          announce converged — equal across domain counts *)
  sc_verified : (unit, string) result;
}

val sc_events : scale_run -> int
(** Total events dispatched, all domains. *)

val sc_events_per_sec : scale_run -> float
(** {!sc_events} over the wall clock. *)

val run_scale :
  ?arch:Bgp_router.Arch.t ->
  ?mode:Net.policy_mode ->
  ?seed:int ->
  ?domains:int ->
  ?timeout:float ->
  ?tracer:Bgp_trace.Tracer.t ->
  kind:Topology.kind ->
  n:int ->
  unit ->
  scale_run
(** Scenarios 11 and 15: the single-origin episode (establish, announce
    from vertex 0, converge, check reachability, fingerprint, withdraw,
    converge, check that no node still holds the route) — with every
    per-node check O(n), so 10k-node graphs stay tractable.  Defaults:
    Pentium III, [Gao_rexford] (valley-free export bounds withdrawal
    path hunting; accept-all [Transit] explodes combinatorially at
    scale), seed 42, 1 domain, 3600 simulated-seconds timeout.
    [tracer] records per-node structured trace events under
    ["<kind>-<n>/node-<i>"] (["<kind>-<n>/d<k>/node-<i>"] on more than
    one domain). *)

(** {1 Reporting} *)

(** Scenario 11's table and JSON print the update counts but none of
    the partition or wall-clock fields. *)

val render_convergence_runs : scale_run list -> string
val render_link_failure : link_failure_run -> string
val render_scale_runs : scale_run list -> string

val convergence_runs_json : scale_run list -> Bgp_stats.Json.t
val link_failure_json : link_failure_run -> Bgp_stats.Json.t
val scale_runs_json : scale_run list -> Bgp_stats.Json.t
