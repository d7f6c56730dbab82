(** The forwarding engine of a router under cross-traffic: RFC 1812
    per-packet work (checksum, TTL, FIB lookup) executed on whichever
    resources the architecture provides.

    Two forwarding models (paper §IV):

    - {b Kernel_shared}: forwarding runs in the kernel of the {e same}
      CPU that runs BGP (uni-core, dual-core, and the Cisco 3620's
      software forwarding).  Per-packet interrupt cycles are charged as
      absolute-priority interrupt demand and per-packet forwarding
      cycles as high-weight kernel demand on the control scheduler;
      heavy BGP activity can therefore shave forwarding throughput
      (Fig. 6(c)) and vice versa (Fig. 5).

    - {b Dedicated_pps}: forwarding runs on its own silicon (IXP2400
      packet processors) with a packet-rate capacity, never touching
      the control CPU.

    Either way the {e line rate} (bus/port ceiling, Table in §V.B)
    caps the achievable bit rate.  Offered load is a bit rate of
    minimum-size (64-byte) frames, as the paper's generators send: what
    matters to the control plane is the resulting packet rate
    (interrupts are per packet) and bit rate (line-rate ceilings are in
    Mbps). *)

(** How an architecture's data plane is implemented. *)
type model =
  | Kernel_shared of {
      interrupt_cycles_per_packet : float;
      forwarding_cycles_per_packet : float;
      forwarding_weight : float;
          (** scheduling weight of kernel forwarding vs. a user process *)
    }  (** forwarding shares the control CPU *)
  | Dedicated_pps of float
      (** independent forwarding silicon with a packet-rate capacity *)

type t

val create : model -> Bgp_sim.Sched.t -> line_rate_mbps:float -> t
(** The forwarding engine of a router whose control CPU is [sched].  A
    [Kernel_shared] model installs its forwarding weight on [sched] (at
    zero demand); a [Dedicated_pps] one never touches it.
    @raise Invalid_argument if [line_rate_mbps <= 0]. *)

val set_offered : t -> float -> unit
(** Change the offered cross-traffic, in Mbps (0 = none); propagates
    demand to a shared scheduler.
    @raise Invalid_argument for a negative (or NaN) rate. *)

val achieved_mbps : t -> float
(** Bit rate currently leaving the router: offered, capped by line
    rate and capacity, scaled by the shared scheduler's forwarding
    ratio when applicable. *)
