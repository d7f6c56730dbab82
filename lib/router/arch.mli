(** Architecture models of the four router systems (paper §IV,
    Table II).

    Each architecture is a {e mechanism} description — clock, core
    count, instruction efficiency, process structure, forwarding
    resources, line-rate ceiling — plus a control-plane cost model in
    CPU cycles.  The XORP-based systems (Pentium III, Xeon, IXP2400)
    share one cost model (same software!) and differ only in hardware
    parameters; the Cisco is a black-box model with a large
    per-message pacing delay and a small per-prefix cost, the structure
    its Table III numbers imply.

    The Table III / Figure 3-6 shapes are {e emergent}: nothing below
    encodes a transactions-per-second number. *)

(** How the data plane is implemented. *)
type forwarding_model =
  | Kernel_shared of {
      interrupt_cycles_per_packet : float;
      forwarding_cycles_per_packet : float;
      forwarding_weight : float;
          (** scheduling weight of kernel forwarding vs. a user process *)
    }  (** forwarding shares the control CPU (uni-core, dual-core, and —
          with a heavy weight — the software-forwarding Cisco 3620) *)
  | Dedicated_pps of float
      (** independent forwarding silicon with a packet-rate capacity
          (IXP2400 packet processors) *)

(** Control-plane software structure. *)
type software_model =
  | Xorp_pipeline
      (** five processes: xorp_bgp -> xorp_policy -> xorp_rib ->
          xorp_fea, plus the xorp_rtrmgr housekeeper *)
  | Monolithic of { pacing_delay_per_msg : float }
      (** one opaque process; each inbound message additionally waits a
          fixed scheduler-pacing delay (seconds) before processing —
          the cost structure implied by the Cisco's small-packet
          numbers *)

type cost_model = {
  cyc_per_msg_rx : float;      (** TCP/syscall/parse per received message *)
  cyc_per_msg_tx : float;      (** send path per transmitted message *)
  cyc_per_byte : float;        (** stream handling per wire byte *)
  cyc_per_prefix_parse : float;
  cyc_per_policy_unit : float; (** per {!Bgp_policy.Policy.apply} work unit *)
  cyc_per_candidate : float;   (** decision process, per candidate route *)
  cyc_per_rib_change : float;  (** Loc-RIB insert/replace/remove *)
  cyc_per_announcement : float;(** building one prefix advertisement *)
  cyc_per_fib_msg : float;     (** RIB->FEA IPC per delta batch *)
  cyc_per_fib_delta : float;   (** kernel/hardware FIB install/remove per entry *)
  cyc_per_fib_replace : float; (** FIB entry replacement (delete+insert+verify);
                                   dominant in scenarios 7-8 *)
  cyc_per_withdraw_parse : float;
}

type t = {
  name : string;
  description : string;
  clock_hz : float;            (** nominal control-CPU clock *)
  efficiency : float;          (** effective IPC factor vs. the reference
                                   (Pentium III = 1.0) *)
  pool : float;                (** core-equivalents available to control
                                   software (hyper-threading as a
                                   fractional bonus) *)
  software : software_model;
  forwarding : forwarding_model;
  line_rate_mbps : float;      (** bus / interconnect / port ceiling *)
  cost : cost_model;
  rtrmgr_period : float;       (** housekeeping period, s (0 = none) *)
  rtrmgr_cycles : float;       (** cycles per housekeeping tick *)
}

val effective_hz : t -> float
(** [clock_hz *. efficiency]. *)

val pentium3 : t
(** Uni-core: 800 MHz, one core, kernel forwarding, 315 Mbps PCI
    ceiling. *)

val xeon : t
(** Dual-core 3 GHz with hyper-threading (pool 2.4), kernel
    forwarding, 784 Mbps PCI-X ceiling. *)

val ixp2400 : t
(** XScale 600 MHz control CPU with low efficiency and a heavy
    xorp_rtrmgr share; eight dedicated packet processors forward at up
    to 940 Mbps. *)

val cisco3620 : t
(** Black box: ~93 ms per-message pacing, cheap per-prefix work,
    software forwarding on the shared CPU, 78 Mbps port ceiling. *)

val all : t list
(** The four systems, in Table II order. *)

val unpaced : t
(** The Xeon model with every cost term zero and no housekeeping: the
    modelled CPU never paces the router, so it runs at host speed.
    This is what [bgpd] runs.  Not one of the paper's systems — absent
    from {!all} and {!by_name}. *)

val by_name : string -> t option
(** Case-insensitive lookup of ["pentium3"], ["xeon"], ["ixp2400"],
    ["cisco3620"]. *)

(** {1 Stage tables}

    An architecture's update path is declared, not hardwired: the
    router builds a {!Bgp_pipeline.Pipeline} from [stage_table] +
    [layout].  A new architecture is a new stage table (see DESIGN.md
    "Update pipeline" for a worked example). *)

val stage_table : t -> Bgp_pipeline.Pipeline.spec list
(** The seven-stage per-update table with this architecture's cost
    hooks.  XORP systems charge wire decode to [xorp_bgp], import
    policy to [xorp_policy], the decision to [xorp_rib], and FIB
    install to [xorp_fea]; the IOS black box charges every priced stage
    to the single [ios] process. *)

val layout : t -> Bgp_pipeline.Pipeline.layout
(** [Pipelined] for the XORP process chain, [Fused_paced] (with the
    per-message scheduler delay) for the monolithic IOS model. *)

val tx_proc_name : t -> string
(** The stage process charged for the message send path. *)

val fib_proc_name : t -> string
(** The stage process charged for out-of-band FIB repair work (peer
    loss). *)

val housekeeper_proc_name : t -> string option
(** An extra, non-pipeline process for periodic housekeeping
    ([xorp_rtrmgr]); [None] when the architecture has no such
    process. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)

val pp_block_diagram : Format.formatter -> t -> unit
(** ASCII rendition of the Fig. 2 block diagram. *)
