(** Control-plane power model — the paper's deferred question
    ("an interesting tradeoff is how much power should be dedicated to
    the control plane", §V.C), implemented as an extension.

    Power is modeled per architecture as idle draw plus a linear active
    term per busy core-equivalent, with a separate term for dedicated
    forwarding silicon.  Combined with a benchmark run it yields
    transactions per joule of {e control-plane} energy — the efficiency
    metric the paper hints at when noting that "a dual-core Xeon
    consumes a large amount of power that would not be available to
    perform data path processing".

    Draw figures are representative of the era's parts (Pentium III
    Coppermine ~25 W TDP, Netburst-class Xeon ~110 W/socket, XScale
    ~1.5 W, 3620 chassis ~35 W); they parameterize a model, they are
    not measurements. *)

type t = {
  idle_watts : float;         (** chassis + memory + NICs, control side *)
  active_watts_per_core : float;
      (** additional draw of one fully busy core-equivalent *)
  forwarding_watts : float;   (** dedicated forwarding silicon at load *)
}

type report = {
  arch_name : string;
  scenario_id : int;
  tps : float;
  avg_busy_cores : float;      (** mean over the measured phase *)
  avg_watts : float;
  joules : float;              (** control-plane energy over the phase *)
  transactions_per_joule : float;
}

val of_run :
  Arch.t -> scenario_id:int -> tps:float -> measure_seconds:float ->
  trace:Bgp_sim.Trace.sample list -> transactions:int -> report
(** Derive the power report from a traced harness run: busy cores are
    integrated from the CPU-load samples (user + interrupts +
    forwarding when the forwarding plane shares the CPU). *)

val pp_report : Format.formatter -> report -> unit
