module Arch = Bgp_router.Arch
module Trace = Bgp_sim.Trace
module Chart = Bgp_stats.Chart

type cpu_figure = {
  title : string;
  arch_name : string;
  scenario_id : int;
  cross_traffic_mbps : float;
  rows : Chart.series list;
  forwarding_rate : Chart.series option;
  result : Harness.result;
}

let cpu_figure ?(cross_mbps = 0.0) arch result =
  let scenario = result.Harness.scenario in
  let samples = result.Harness.trace in
  let names =
    match samples with [] -> [] | s :: _ -> List.map fst s.Trace.s_procs
  in
  let proc_series name =
    { Chart.label = name;
      points =
        List.map
          (fun s ->
            ( s.Trace.s_time,
              Option.value ~default:0.0 (List.assoc_opt name s.Trace.s_procs) ))
          samples }
  in
  let rows =
    List.map proc_series names
    @ [ { Chart.label = "interrupts";
          points = List.map (fun s -> (s.Trace.s_time, s.Trace.s_interrupt)) samples };
        { Chart.label = "forwarding(sys)";
          points = List.map (fun s -> (s.Trace.s_time, s.Trace.s_forwarding)) samples }
      ]
  in
  let forwarding_rate =
    if cross_mbps > 0.0 then
      let admitted = Float.min cross_mbps arch.Arch.line_rate_mbps in
      Some
        { Chart.label = "forwarding rate (Mbps)";
          points =
            List.map
              (fun s -> (s.Trace.s_time, admitted *. s.Trace.s_fwd_ratio))
              samples }
    else None
  in
  { title =
      Printf.sprintf "%s, scenario %d%s" arch.Arch.name scenario.Scenario.id
        (if cross_mbps > 0.0 then Printf.sprintf ", %.0f Mbps cross-traffic" cross_mbps
         else "");
    arch_name = arch.Arch.name; scenario_id = scenario.Scenario.id;
    cross_traffic_mbps = cross_mbps; rows; forwarding_rate; result }

let cpu_run ?(config = Harness.default_config) ?(cross_mbps = 0.0) arch scenario =
  let config =
    { config with
      Harness.trace_interval =
        Some (Option.value ~default:1.0 config.Harness.trace_interval);
      cross_traffic =
        (if cross_mbps > 0.0 then cross_mbps else config.Harness.cross_traffic) }
  in
  cpu_figure ~cross_mbps arch (Harness.run ~config arch scenario)

let render_cpu f =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "--- %s ---\n" f.title);
  Buffer.add_string b
    (Chart.render ~x_label:"time (s)" ~y_label:"CPU load (% of one core)" f.rows);
  Option.iter
    (fun s ->
      Buffer.add_char b '\n';
      Buffer.add_string b
        (Chart.render ~x_label:"time (s)" ~y_label:"forwarding rate (Mbps)" [ s ]))
    f.forwarding_rate;
  Buffer.add_string b
    (Printf.sprintf "tps=%.1f verified=%s\n" f.result.Harness.tps
       (match f.result.Harness.verified with Ok () -> "ok" | Error e -> e));
  Buffer.contents b

let fig3 ?config () =
  let sc6 = Scenario.of_id_exn 6 in
  List.map
    (fun arch -> cpu_run ?config arch sc6)
    [ Arch.pentium3; Arch.xeon; Arch.ixp2400 ]

let fig4 ?config () =
  List.map
    (fun sid -> cpu_run ?config Arch.pentium3 (Scenario.of_id_exn sid))
    [ 1; 2 ]

let fig6 ?config () =
  let sc8 = Scenario.of_id_exn 8 in
  [ cpu_run ?config ~cross_mbps:0.0 Arch.pentium3 sc8;
    cpu_run ?config ~cross_mbps:300.0 Arch.pentium3 sc8 ]

let render_all figs = String.concat "\n" (List.map render_cpu figs)
