module Forwarding = Bgp_netsim.Forwarding

type software_model =
  | Xorp_pipeline
  | Monolithic of { pacing_delay_per_msg : float }

type cost_model = {
  cyc_per_msg_rx : float;
  cyc_per_msg_tx : float;
  cyc_per_byte : float;
  cyc_per_prefix_parse : float;
  cyc_per_policy_unit : float;
  cyc_per_candidate : float;
  cyc_per_rib_change : float;
  cyc_per_announcement : float;
  cyc_per_fib_msg : float;
  cyc_per_fib_delta : float;
  cyc_per_fib_replace : float;
  cyc_per_withdraw_parse : float;
}

type t = {
  name : string;
  description : string;
  clock_hz : float;
  efficiency : float;
  pool : float;
  software : software_model;
  forwarding : Forwarding.model;
  line_rate_mbps : float;
  cost : cost_model;
  rtrmgr_period : float;
  rtrmgr_cycles : float;
}

let effective_hz t = t.clock_hz *. t.efficiency

(* Calibrated against the Pentium III column of Table III (see
   DESIGN.md): with these constants the uni-core reference lands within
   ~10% of the paper on scenarios 1-4 and preserves every cross-system
   and cross-scenario ordering. *)
let xorp_cost =
  { cyc_per_msg_rx = 500_000.0;
    cyc_per_msg_tx = 150_000.0;
    cyc_per_byte = 100.0;
    cyc_per_prefix_parse = 50_000.0;
    cyc_per_policy_unit = 20_000.0;
    cyc_per_candidate = 100_000.0;
    cyc_per_rib_change = 300_000.0;
    cyc_per_announcement = 350_000.0;
    cyc_per_fib_msg = 1_300_000.0;
    cyc_per_fib_delta = 1_900_000.0;
    cyc_per_fib_replace = 4_500_000.0;
    cyc_per_withdraw_parse = 30_000.0 }

(* Cisco: per-prefix work is cheap and flat; the dominant term is the
   ~93 ms the IOS scheduler spends between messages (derivable from
   scenarios 1 vs 2: 1/10.7 - 500/2492.9 ~ 93 ms). *)
let ios_cost =
  { cyc_per_msg_rx = 80_000.0;
    cyc_per_msg_tx = 30_000.0;
    cyc_per_byte = 20.0;
    cyc_per_prefix_parse = 30_000.0;
    cyc_per_policy_unit = 5_000.0;
    cyc_per_candidate = 30_000.0;
    cyc_per_rib_change = 40_000.0;
    cyc_per_announcement = 15_000.0;
    cyc_per_fib_msg = 50_000.0;
    cyc_per_fib_delta = 60_000.0;
    cyc_per_fib_replace = 60_000.0;
    cyc_per_withdraw_parse = 15_000.0 }

let pentium3 =
  { name = "pentium3";
    description = "Uni-core router: Intel Pentium III 800 MHz, Linux 2.6, XORP 1.3";
    clock_hz = 800e6;
    efficiency = 1.0;
    pool = 1.0;
    software = Xorp_pipeline;
    forwarding =
      Forwarding.Kernel_shared
        { interrupt_cycles_per_packet = 400.0;
          forwarding_cycles_per_packet = 450.0;
          forwarding_weight = 2.0 };
    line_rate_mbps = 315.0 (* PCI32 bus limit *);
    cost = xorp_cost;
    rtrmgr_period = 1.0;
    rtrmgr_cycles = 8e6 (* ~1%: "hardly visible" on this class *) }

let xeon =
  { name = "xeon";
    description =
      "Dual-core router: Intel Xeon 3.0 GHz x 2 cores x 2 threads, Linux 2.6, XORP 1.3";
    clock_hz = 3e9;
    efficiency = 1.35 (* newer microarchitecture vs the P III reference *);
    pool = 2.4 (* two cores + hyper-threading gain *);
    software = Xorp_pipeline;
    forwarding =
      Forwarding.Kernel_shared
        { interrupt_cycles_per_packet = 400.0;
          forwarding_cycles_per_packet = 450.0;
          forwarding_weight = 2.0 };
    line_rate_mbps = 784.0 (* PCI Express path limit measured in the paper *);
    cost = xorp_cost;
    rtrmgr_period = 1.0;
    rtrmgr_cycles = 8e6 }

let ixp2400 =
  { name = "ixp2400";
    description =
      "Network processor router: Intel IXP2400 (XScale 600 MHz control CPU, \
       8 packet processors), Linux 2.4, XORP 1.3";
    clock_hz = 600e6;
    efficiency = 0.2 (* no L2, narrow memory path: low IPC on XORP code *);
    pool = 1.0;
    software = Xorp_pipeline;
    forwarding =
      (* Eight packet processors forward independently of the XScale:
         ~1.84 Mpps covers 940 Mbps of 64-byte frames. *)
      Forwarding.Dedicated_pps 1.9e6;
    line_rate_mbps = 940.0 (* media/switch-fabric interconnect limit *);
    cost = xorp_cost;
    rtrmgr_period = 0.5;
    rtrmgr_cycles = 15e6 (* ~25% of the effective XScale: "considerable" *) }

let cisco3620 =
  { name = "cisco3620";
    description = "Commercial router: Cisco 3620, IOS 12.1(5)YB (black box)";
    clock_hz = 1e9 (* abstract unit clock for the black-box cost model *);
    efficiency = 1.0;
    pool = 1.0;
    software = Monolithic { pacing_delay_per_msg = 0.093 };
    forwarding =
      (* Software forwarding on the shared CPU; 64-byte frames at the
         78 Mbps port ceiling (~152 kpps) consume ~90% of the CPU. *)
      Forwarding.Kernel_shared
        { interrupt_cycles_per_packet = 500.0;
          forwarding_cycles_per_packet = 6_000.0;
          forwarding_weight = 20.0 };
    line_rate_mbps = 78.0 (* 100 Mbps ports, measured ceiling *);
    cost = ios_cost;
    rtrmgr_period = 0.0;
    rtrmgr_cycles = 0.0 }

let all = [ pentium3; xeon; ixp2400; cisco3620 ]

let free =
  { cyc_per_msg_rx = 0.0; cyc_per_msg_tx = 0.0; cyc_per_byte = 0.0;
    cyc_per_prefix_parse = 0.0; cyc_per_policy_unit = 0.0;
    cyc_per_candidate = 0.0; cyc_per_rib_change = 0.0;
    cyc_per_announcement = 0.0; cyc_per_fib_msg = 0.0;
    cyc_per_fib_delta = 0.0; cyc_per_fib_replace = 0.0;
    cyc_per_withdraw_parse = 0.0 }

let unpaced =
  { xeon with
    name = "unpaced";
    description = "Xeon model with zero costs: host speed only";
    cost = free }

let is_free t = t.cost = free  (* structural: copies of [free] count *)

(* ------------------------------------------------------------------ *)
(* Declarative stage tables                                            *)
(* ------------------------------------------------------------------ *)

module P = Bgp_pipeline.Pipeline

let fi = float_of_int

(* Message receive: TCP/syscall fixed cost, stream handling per byte,
   parse per announced/withdrawn prefix. *)
let rx_cost c (w : P.work) =
  c.cyc_per_msg_rx
  +. (fi w.P.w_bytes *. c.cyc_per_byte)
  +. (fi w.P.w_announced *. c.cyc_per_prefix_parse)
  +. (fi w.P.w_withdrawn *. c.cyc_per_withdraw_parse)

let fib_delta_cost c ~replaces ~installs =
  (fi replaces *. c.cyc_per_fib_replace) +. (fi installs *. c.cyc_per_fib_delta)

let work_delta_cost c (w : P.work) =
  fib_delta_cost c ~replaces:w.P.w_fib_replaces ~installs:w.P.w_fib_installs

let decision_cost c (w : P.work) =
  (fi w.P.w_candidates *. c.cyc_per_candidate)
  +. (fi w.P.w_loc_changes *. c.cyc_per_rib_change)
  +. (fi w.P.w_announcements *. c.cyc_per_announcement)

(* XORP (Table II uni-core / dual-core / NP systems): each stage with a
   process is a separate scheduled job, reproducing the
   bgp -> policy -> rib -> fea IPC chain; export and MRAI bookkeeping
   ride inline on the bgp process' transmit path. *)
let xorp_stage_table c = function
  | P.Wire_decode -> P.Proc ("xorp_bgp", rx_cost c)
  (* The process hop is priced from fan-out; the real per-candidate
     policy work is folded into the decision stage costing below. *)
  | P.Import_policy ->
    P.Proc
      ("xorp_policy", fun w -> fi (P.policy_fanout w) *. c.cyc_per_policy_unit)
  (* Adj_rib_in runs the RIB machinery (a begin hook); it consumes no
     simulated CPU of its own — its outcome prices the decision stage. *)
  | P.Adj_rib_in | P.Export_policy | P.Mrai_pacing -> P.Inline
  | P.Decision ->
    P.Proc
      ( "xorp_rib",
        fun w ->
          decision_cost c w
          (* prefixes that produced no decision at all still burn a
             lookup *)
          +. Float.max 0.0
               (fi (P.prefixes w - w.P.w_candidates)
               *. (0.5 *. c.cyc_per_candidate)) )
  | P.Fib_install ->
    P.Proc ("xorp_fea", fun w -> c.cyc_per_fib_msg +. work_delta_cost c w)

(* IOS (black box): the same seven logical stages, but every priced
   stage charges the single "ios" process and the whole batch runs as
   one fused job behind the scheduler pacing delay.  No separate policy
   or FIB-IPC terms — the Table III numbers imply they are inside the
   flat per-prefix cost. *)
let ios_stage_table c =
  let ios cost = P.Proc ("ios", cost) in
  function
  | P.Wire_decode -> ios (rx_cost c)
  | P.Decision -> ios (decision_cost c)
  | P.Fib_install -> ios (work_delta_cost c)
  | P.Import_policy | P.Adj_rib_in | P.Export_policy | P.Mrai_pacing ->
    P.Inline

(* A free cost model prices nothing, so no stage needs a process. *)
let stage_table t =
  if is_free t then fun _ -> P.Inline
  else
    match t.software with
    | Xorp_pipeline -> xorp_stage_table t.cost
    | Monolithic _ -> ios_stage_table t.cost

(* A fused job needs the one process that a free table does not have. *)
let layout t =
  match t.software with
  | Monolithic { pacing_delay_per_msg } when not (is_free t) ->
    P.Fused_paced pacing_delay_per_msg
  | Xorp_pipeline | Monolithic _ -> P.Pipelined

let housekeeper_proc_name t =
  if t.rtrmgr_period > 0.0 && t.rtrmgr_cycles > 0.0 && not (is_free t) then
    Some "xorp_rtrmgr"
  else None

(* The work the router charges off the update pipeline. *)
let send_cycles t ~bytes =
  t.cost.cyc_per_msg_tx +. (fi bytes *. t.cost.cyc_per_byte)

let export_cycles t ~prefixes = fi prefixes *. t.cost.cyc_per_announcement

let repair_cycles t deltas ~announcements =
  let c = t.cost in
  let replaces =
    List.fold_left
      (fun n -> function Bgp_fib.Fib.Replace _ -> n + 1 | _ -> n)
      0 deltas
  in
  c.cyc_per_fib_msg
  +. fib_delta_cost c ~replaces ~installs:(List.length deltas - replaces)
  +. (fi announcements *. c.cyc_per_announcement)

let by_name name =
  let lname = String.lowercase_ascii name in
  List.find_opt (fun a -> a.name = lname) all

let pp ppf t =
  Format.fprintf ppf "%-10s %5.0f MHz x %.1f pool (eff %.2f), %s fwd, %.0f Mbps line"
    t.name (t.clock_hz /. 1e6) t.pool t.efficiency
    (match t.forwarding with
    | Forwarding.Kernel_shared _ -> "shared"
    | Forwarding.Dedicated_pps _ -> "dedicated")
    t.line_rate_mbps

let pp_block_diagram ppf t =
  let fwd =
    match t.forwarding with
    | Forwarding.Kernel_shared _ -> "| Forwarding (kernel) |<== data =>"
    | Forwarding.Dedicated_pps _ -> "| Packet processors   |<== data =>"
  in
  let ctrl =
    match t.software with
    | Xorp_pipeline -> "bgp | policy | rib | fea | rtrmgr"
    | Monolithic _ -> "IOS (black box)"
  in
  Format.fprintf ppf
    "@[<v>%s: %s@,+---------------------+@,| %-19s |  <- control plane@,+---------------------+@,%s@,+---------------------+@]"
    t.name t.description ctrl fwd
