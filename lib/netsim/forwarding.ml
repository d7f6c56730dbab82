type resources =
  | Shared of {
      sched : Bgp_sim.Sched.t;
      interrupt_cycles_per_packet : float;
      forwarding_cycles_per_packet : float;
    }
  | Dedicated of { capacity_pps : float }

type t = {
  resources : resources;
  line_rate_mbps : float;
  mutable traffic : Traffic.t;
}

let create resources ~line_rate_mbps =
  if line_rate_mbps <= 0.0 then invalid_arg "Forwarding.create: line rate";
  { resources; line_rate_mbps; traffic = Traffic.none }

(* The line-rate ceiling applies before the CPU sees the packets: a
   315 Mbps PCI bus simply never delivers 500 Mbps of interrupts. *)
let admitted_pps t =
  let admitted_mbps = Float.min t.traffic.Traffic.mbps t.line_rate_mbps in
  Traffic.pps { t.traffic with Traffic.mbps = admitted_mbps }

let set_offered t traffic =
  t.traffic <- traffic;
  match t.resources with
  | Shared { sched; interrupt_cycles_per_packet; forwarding_cycles_per_packet } ->
    let pps = admitted_pps t in
    Bgp_sim.Sched.set_interrupt_demand sched
      ~cycles_per_sec:(pps *. interrupt_cycles_per_packet);
    Bgp_sim.Sched.set_forwarding_demand sched
      ~cycles_per_sec:(pps *. forwarding_cycles_per_packet) ()
  | Dedicated _ -> ()

let achieved_mbps t =
  let admitted = Float.min t.traffic.Traffic.mbps t.line_rate_mbps in
  match t.resources with
  | Shared { sched; _ } -> admitted *. Bgp_sim.Sched.forwarding_ratio sched
  | Dedicated { capacity_pps } ->
    let pps = admitted_pps t in
    if pps <= capacity_pps then admitted
    else admitted *. (capacity_pps /. pps)

let loss_ratio t =
  if t.traffic.Traffic.mbps <= 0.0 then 0.0
  else 1.0 -. (achieved_mbps t /. t.traffic.Traffic.mbps)

let uses_control_cpu t =
  match t.resources with Shared _ -> true | Dedicated _ -> false
