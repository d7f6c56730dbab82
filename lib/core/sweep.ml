module Arch = Bgp_router.Arch

type point = { mbps : float; result : Harness.result }

type series = {
  arch_name : string;
  line_rate : float;
  points : point list;
}

type t = { scenario : Scenario.t; series : series list }

let default_levels = List.init 11 (fun i -> float_of_int (i * 100))

let run ?(config = Harness.default_config) ?(levels = default_levels)
    ?(archs = Bgp_router.Arch.all) scenario =
  let series =
    List.map
      (fun arch ->
        let line = arch.Arch.line_rate_mbps in
        (* Sample below the line rate (a level right at the cap is
           included as the last point, like the paper's end-of-line
           markers). *)
        let levels =
          List.sort_uniq compare
            (List.filter (fun m -> m <= line) levels @ [ line ])
        in
        let points =
          List.map
            (fun mbps ->
              let config = { config with Harness.cross_traffic = mbps } in
              { mbps; result = Harness.run ~config arch scenario })
            levels
        in
        { arch_name = arch.Arch.name; line_rate = line; points })
      archs
  in
  { scenario; series }

let tps_series t =
  List.map
    (fun s ->
      { Bgp_stats.Chart.label = s.arch_name;
        points = List.map (fun p -> (p.mbps, p.result.Harness.tps)) s.points })
    t.series

let render t =
  Printf.sprintf "Benchmark %d: transactions/s vs cross-traffic\n%s"
    t.scenario.Scenario.id
    (Bgp_stats.Chart.render ~log_y:true ~x_label:"cross traffic (Mbps)"
       ~y_label:"transactions/s" (tps_series t))

let degradation s =
  match s.points with
  | [] -> 1.0
  | first :: _ ->
    let last = List.nth s.points (List.length s.points - 1) in
    if last.result.Harness.tps <= 0.0 then infinity
    else first.result.Harness.tps /. last.result.Harness.tps
