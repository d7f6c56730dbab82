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
  forwarding : Bgp_netsim.Forwarding.model;
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

val free : cost_model
(** Every cost term zero: no simulated CPU.  On it (or on a copy of it)
    every stage is [Inline] and there is no housekeeper, so a router
    registers no scheduler process and runs all its work at once. *)

val unpaced : t
(** The Xeon model on {!free} costs, at host speed: what [bgpd] runs.
    Not a paper system — absent from {!all} and {!by_name}. *)

val by_name : string -> t option
(** Case-insensitive lookup of ["pentium3"], ["xeon"], ["ixp2400"],
    ["cisco3620"]. *)

(** {1 Stage tables}

    An architecture's update path is declared, not hardwired: for each
    of the seven stages it names a process and a cost hook, or runs the
    stage inline (DESIGN.md "Update pipeline" has a worked example).
    Stage order, unit counts and the [Fib_install] skip belong to
    {!Bgp_pipeline.Pipeline}.  Sends run where [Wire_decode] runs, and
    FIB repair where [Fib_install] runs
    ({!Bgp_pipeline.Pipeline.run_on}). *)

val stage_table :
  t -> Bgp_pipeline.Pipeline.stage_id -> Bgp_pipeline.Pipeline.placement
(** This architecture's placement and cost hook for each stage.  XORP
    systems charge wire decode to [xorp_bgp], import policy to
    [xorp_policy], the decision to [xorp_rib], and FIB install to
    [xorp_fea]; the IOS black box charges wire decode, the decision
    and FIB install to the single [ios] process. *)

val layout : t -> Bgp_pipeline.Pipeline.layout
(** [Pipelined] for the XORP process chain, [Fused_paced] (with the
    per-message scheduler delay) for the monolithic IOS model, and
    [Pipelined] on the {!free} cost model, which has no process. *)

val housekeeper_proc_name : t -> string option
(** An extra, non-pipeline process for periodic housekeeping
    ([xorp_rtrmgr]); [None] without a positive period and cycle count,
    or on the {!free} cost model. *)

(** {1 Prices, in cycles, of the work off the update pipeline} *)

val send_cycles : t -> bytes:int -> float
(** One outbound message: [cyc_per_msg_tx + bytes * cyc_per_byte]. *)

val export_cycles : t -> prefixes:int -> float
(** One packed export UPDATE: [prefixes * cyc_per_announcement]. *)

val repair_cycles : t -> Bgp_fib.Fib.delta list -> announcements:int -> float
(** One FIB job (peer loss, origination): [cyc_per_fib_msg], the deltas
    priced as [Fib_install] prices them, and the announcements. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)

val pp_block_diagram : Format.formatter -> t -> unit
(** ASCII rendition of the Fig. 2 block diagram. *)
