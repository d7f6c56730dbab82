type t = {
  idle_watts : float;
  active_watts_per_core : float;
  forwarding_watts : float;
}

let of_arch (arch : Arch.t) =
  match arch.Arch.name with
  | "pentium3" ->
    { idle_watts = 18.0; active_watts_per_core = 22.0; forwarding_watts = 0.0 }
  | "xeon" ->
    (* dual Netburst-class cores: heavy idle and heavy active draw *)
    { idle_watts = 65.0; active_watts_per_core = 48.0; forwarding_watts = 0.0 }
  | "ixp2400" ->
    (* XScale control core is tiny; the packet processors draw their
       own ~10 W independent of control load *)
    { idle_watts = 4.0; active_watts_per_core = 1.5; forwarding_watts = 10.0 }
  | "cisco3620" ->
    { idle_watts = 30.0; active_watts_per_core = 8.0; forwarding_watts = 0.0 }
  | name -> invalid_arg (Printf.sprintf "Power.of_arch: unknown system %s" name)

let control_watts t ~busy_cores =
  t.idle_watts +. (Float.max 0.0 busy_cores *. t.active_watts_per_core)

type report = {
  arch_name : string;
  scenario_id : int;
  tps : float;
  avg_busy_cores : float;
  avg_watts : float;
  joules : float;
  transactions_per_joule : float;
}

let of_run (arch : Arch.t) ~scenario_id ~tps ~measure_seconds ~trace
    ~transactions =
  let model = of_arch arch in
  (* Busy core-equivalents per sample: user processes plus, on shared-
     CPU architectures, interrupts and kernel forwarding. *)
  let busy_of sample =
    let user = Bgp_sim.Trace.total_user_percent sample in
    let kernel =
      match arch.Arch.forwarding with
      | Bgp_netsim.Forwarding.Kernel_shared _ ->
        sample.Bgp_sim.Trace.s_interrupt +. sample.Bgp_sim.Trace.s_forwarding
      | Bgp_netsim.Forwarding.Dedicated_pps _ -> sample.Bgp_sim.Trace.s_interrupt
    in
    (user +. kernel) /. 100.0
  in
  let avg_busy_cores =
    match trace with
    | [] -> 0.0
    | samples ->
      List.fold_left (fun acc s -> acc +. busy_of s) 0.0 samples
      /. float_of_int (List.length samples)
  in
  let avg_watts =
    control_watts model ~busy_cores:avg_busy_cores +. model.forwarding_watts
  in
  let joules = avg_watts *. measure_seconds in
  { arch_name = arch.Arch.name; scenario_id; tps; avg_busy_cores; avg_watts;
    joules;
    transactions_per_joule =
      (if joules > 0.0 then float_of_int transactions /. joules else 0.0) }

let pp_report ppf r =
  Format.fprintf ppf
    "%-10s scenario %d: %8.1f tps, %4.2f busy cores, %6.1f W avg, %8.1f J, %8.2f transactions/J"
    r.arch_name r.scenario_id r.tps r.avg_busy_cores r.avg_watts r.joules
    r.transactions_per_joule
