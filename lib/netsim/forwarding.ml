module Sched = Bgp_sim.Sched

type model =
  | Kernel_shared of {
      interrupt_cycles_per_packet : float;
      forwarding_cycles_per_packet : float;
      forwarding_weight : float;
    }
  | Dedicated_pps of float

type t = {
  model : model;
  sched : Sched.t;
  line_rate_mbps : float;
  mutable offered_mbps : float;
}

(* Minimum Ethernet frame: the paper's generators blast 64-byte frames. *)
let frame_bytes = 64.0

let create model sched ~line_rate_mbps =
  (match model with
   | Kernel_shared { forwarding_weight; _ } ->
     (* Install the weight once; demand changes keep it. *)
     Sched.set_forwarding_demand sched ~weight:forwarding_weight
       ~cycles_per_sec:0.0 ()
   | Dedicated_pps _ -> ());
  if line_rate_mbps <= 0.0 then invalid_arg "Forwarding.create: line rate";
  { model; sched; line_rate_mbps; offered_mbps = 0.0 }

(* The line-rate ceiling applies before the CPU sees the packets: a
   315 Mbps PCI bus simply never delivers 500 Mbps of interrupts. *)
let admitted_mbps t = Float.min t.offered_mbps t.line_rate_mbps
let pps mbps = mbps *. 1e6 /. (8.0 *. frame_bytes)

let set_offered t mbps =
  if not (mbps >= 0.0) then
    invalid_arg (Printf.sprintf "Forwarding.set_offered: rate must be >= 0, got %g" mbps);
  t.offered_mbps <- mbps;
  match t.model with
  | Kernel_shared { interrupt_cycles_per_packet; forwarding_cycles_per_packet; _ } ->
    let pps = pps (admitted_mbps t) in
    Sched.set_interrupt_demand t.sched
      ~cycles_per_sec:(pps *. interrupt_cycles_per_packet);
    Sched.set_forwarding_demand t.sched
      ~cycles_per_sec:(pps *. forwarding_cycles_per_packet) ()
  | Dedicated_pps _ -> ()

let achieved_mbps t =
  let admitted = admitted_mbps t in
  match t.model with
  | Kernel_shared _ -> admitted *. Sched.forwarding_ratio t.sched
  | Dedicated_pps capacity_pps ->
    let pps = pps admitted in
    if pps <= capacity_pps then admitted
    else admitted *. (capacity_pps /. pps)
