(** The forwarding engine of a router under cross-traffic: RFC 1812
    per-packet work (checksum, TTL, FIB lookup) executed on whichever
    resources the architecture provides.

    Two resource models (paper §IV):

    - {b Shared}: forwarding runs in the kernel of the {e same} CPU
      that runs BGP (uni-core, dual-core).  Per-packet interrupt cycles
      are charged as absolute-priority interrupt demand and per-packet
      forwarding cycles as high-weight kernel demand on the control
      scheduler; heavy BGP activity can therefore shave forwarding
      throughput (Fig. 6(c)) and vice versa (Fig. 5).

    - {b Dedicated}: forwarding runs on its own silicon (IXP2400
      packet processors, Cisco forwarding path) with a packet-rate
      capacity, never touching the control CPU.

    Either way the {e line rate} (bus/port ceiling, Table in §V.B)
    caps the achievable bit rate. *)

type resources =
  | Shared of {
      sched : Bgp_sim.Sched.t;
      interrupt_cycles_per_packet : float;
      forwarding_cycles_per_packet : float;
    }
  | Dedicated of { capacity_pps : float }

type t

val create : resources -> line_rate_mbps:float -> t

val set_offered : t -> Traffic.t -> unit
(** Change the offered cross-traffic (propagates demand to a shared
    scheduler). *)

val achieved_mbps : t -> float
(** Bit rate currently leaving the router: offered, capped by line
    rate and capacity, scaled by the shared scheduler's forwarding
    ratio when applicable. *)

val loss_ratio : t -> float
(** 1 - achieved/offered (0 when idle). *)

val uses_control_cpu : t -> bool
