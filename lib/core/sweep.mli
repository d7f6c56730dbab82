(** Cross-traffic sweeps — the machinery behind Figure 5 (eight panels
    of transactions/s vs. offered cross-traffic for all four
    systems).

    Cross-traffic only makes sense up to each system's line rate, so
    the sweep clips its sample grid per architecture, exactly as the
    paper's plots end early for the Cisco (78 Mbps) and the Pentium III
    (315 Mbps). *)

type point = {
  mbps : float;
  result : Harness.result;
}

type series = {
  arch_name : string;
  line_rate : float;
  points : point list;  (** ascending offered Mbps *)
}

type t = {
  scenario : Scenario.t;
  series : series list;
}

val run :
  ?config:Harness.config -> ?levels:float list ->
  ?archs:Bgp_router.Arch.t list -> Scenario.t -> t
(** Sweep one scenario. [config.cross_traffic] is overridden by each
    level; [levels] defaults to 0, 100, ..., 1000 Mbps (clipped per
    system). *)

val tps_series : t -> Bgp_stats.Chart.series list
(** One chart series per architecture. *)

val render : t -> string
(** Log-y ASCII panel like one Fig. 5 subplot. *)

val degradation : series -> float
(** tps(no cross-traffic) / tps(highest level), >= 1 when traffic
    hurts; the number the Fig. 5 shape criteria are stated in. *)
