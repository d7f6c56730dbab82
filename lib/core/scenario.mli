(** The eight benchmark scenarios (paper Table I).

    Three orthogonal knobs: BGP operation (start-up table load, ending
    withdrawals, incremental updates), whether the forwarding table
    changes, and UPDATE packing (one prefix per message vs. 500). *)

type operation =
  | Startup_announce    (** Phase 1 table injection (scenarios 1-2) *)
  | Ending_withdraw     (** Phase 3 withdrawal of the table (3-4) *)
  | Incremental_no_fib_change
      (** Speaker 2 re-announces with a longer AS path (5-6) *)
  | Incremental_fib_change
      (** Speaker 2 re-announces with a shorter AS path (7-8) *)
  | Corrupted_storm
      (** Adversarial (9): rounds of pre-validated corrupted UPDATEs;
          each must draw the exact RFC 4271 NOTIFICATION, then the
          session recovers and the table re-converges *)
  | Session_flaps
      (** Adversarial (10): repeated session flaps (CEASE and TCP
          reset alternating) mid-measurement, re-convergence timed *)
  | Mrt_replay
      (** MRT (13): load a recorded (or synthesized) TABLE_DUMP_V2 RIB
          through Phase 1, then replay the dump's BGP4MP update trace
          and measure msgs/s and per-stage costs against the synthetic
          equivalent *)
  | Flap_damping
      (** MRT (14): the scenario-10 flap storm with RFC 2439 damping
          enabled — suppressed-prefix counts, reuse-timer latencies,
          and convergence deltas against the undamped run *)
  | Subscriber_churn
      (** Churn (16): BNG/WISP subscriber-edge workload — N /32 session
          routes injected in rate-limited batches, steady-state Markov
          up/down churn with [max_prefixes] and MRAI active, then a
          failover (peer loss) whose full withdraw sweep is timed
          end-to-end against the {!Bgp_speaker.Subscriber} oracle *)

type packet_size = Small | Large

type t = { id : int; operation : operation; packet_size : packet_size }

val all : t list
(** Scenarios 1-8 in Table I order.  Deliberately excludes the
    adversarial extensions so Table III keeps the paper's exact
    shape. *)

val adversarial : t list
(** The fault-injection scenarios 9-10 (not part of the paper). *)

val mrt : t list
(** The real-trace scenarios 13-14 (MRT replay, flap damping). *)

val churn : t list
(** The subscriber-edge churn scenario 16.  (15, the partitioned
    multi-domain sweep, runs through [Bgp_topo.Pengine] and has no
    [Scenario.t].) *)

val of_id : int -> t option
(** Scenario by number: 1-8 from Table I, 9-10 adversarial, 13-14
    MRT/damping, 16 subscriber churn.  The multi-router scenarios 11,
    12 and 15 run through [Bgp_topo] and have no entry. *)

val of_id_exn : int -> t

val packing : ?large:int -> t -> int
(** Prefixes per UPDATE: 1 for [Small], [large] (default 500) for
    [Large]. *)

val forwarding_table_changes : t -> bool
(** The "Forwarding Table Changes" row of Table I. *)

val measures_phase : t -> int
(** Which benchmark phase the transactions/second metric covers: 1 for
    scenarios 1-2, 3 for the rest. *)

val uses_speaker2 : t -> bool
(** Scenarios 5-8 need the second speaker (and hence Phase 2). *)

val name : t -> string
(** e.g. ["scenario-5"] *)

val describe : t -> string
val pp : Format.formatter -> t -> unit

val table1 : unit -> string
(** Rendered Table I. *)
