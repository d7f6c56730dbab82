(** Reproductions of the paper's time-series figures.

    Each [figN] function runs the corresponding experiment and returns
    a rendered multi-chart report; [*_data] variants expose the raw
    series for tests and external plotting. *)

type cpu_figure = {
  title : string;
  arch_name : string;
  scenario_id : int;
  cross_traffic_mbps : float;
  rows : Bgp_stats.Chart.series list;
      (** per-process CPU %, plus interrupts/forwarding *)
  forwarding_rate : Bgp_stats.Chart.series option;
      (** achieved forwarding Mbps over time (Fig. 6(c)) *)
  result : Harness.result;
}

val cpu_figure :
  ?cross_mbps:float -> Bgp_router.Arch.t -> Harness.result -> cpu_figure
(** The CPU-load figure of a run made with a [trace_interval] (and, when
    [cross_mbps] > 0, that much cross-traffic). *)

val cpu_run :
  ?config:Harness.config -> ?cross_mbps:float -> Bgp_router.Arch.t ->
  Scenario.t -> cpu_figure
(** One traced run (trace interval auto-scaled to the run length). *)

val render_cpu : cpu_figure -> string

val fig3 : ?config:Harness.config -> unit -> cpu_figure list
(** Scenario 6 on Pentium III / Xeon / IXP2400: per-process CPU load
    over the three phases. *)

val fig4 : ?config:Harness.config -> unit -> cpu_figure list
(** Scenarios 1 and 2 on the Pentium III: packet-size effect on the
    process mix. *)

val fig6 : ?config:Harness.config -> unit -> cpu_figure list
(** Scenario 8 on the Pentium III without and with 300 Mbps of
    cross-traffic, including the forwarding-rate dip. *)

val render_all : cpu_figure list -> string
