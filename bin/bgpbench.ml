(* bgpbench: regenerate every table and figure of "Benchmarking BGP
   Routers" (IISWC 2007) from the bgpmark simulation. *)

open Cmdliner
module Arch = Bgp_router.Arch
module H = Bgpmark.Harness
module Scenario = Bgpmark.Scenario

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let size_t =
  let doc = "Routing-table size (prefixes injected by Speaker 1)." in
  Arg.(value & opt int 10_000 & info [ "n"; "size" ] ~docv:"PREFIXES" ~doc)

let packing_t =
  let doc =
    "Prefixes per large UPDATE (the paper uses 500); an UPDATE that would \
     exceed 4096 bytes carries fewer."
  in
  Arg.(value & opt int 500 & info [ "packing" ] ~docv:"N" ~doc)

let seed_t =
  let doc = "Workload generation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let config_of ?(varied = false) size packing seed =
  { H.default_config with
    H.table_size = size; large_packing = packing; seed; varied_paths = varied }

let live_t =
  let doc =
    "Run over real loopback TCP sockets on a select loop (wall-clock \
     time) instead of the simulated network.  Timings will differ from \
     sim mode; routing outcomes (Loc-RIB fingerprints, verification \
     verdicts) must not — see `bgpbench crosscheck'."
  in
  Arg.(value & flag & info [ "live" ] ~doc)

let live_timeout_t =
  let doc = "Wall-clock guard per live run, in seconds." in
  Arg.(value & opt float 120.0 & info [ "live-timeout" ] ~docv:"SECONDS" ~doc)

let apply_live live live_timeout config =
  if live then { config with H.mode = H.Live; timeout = live_timeout }
  else config

let arch_conv =
  let parse s =
    match Arch.by_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown system %S (expected %s)" s
              (String.concat ", " (List.map (fun a -> a.Arch.name) Arch.all))))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf a.Arch.name)

let archs_t =
  let doc = "Systems to benchmark (repeatable); default: all four." in
  Arg.(value & opt_all arch_conv [] & info [ "a"; "arch" ] ~docv:"SYSTEM" ~doc)

let resolve_archs = function [] -> Arch.all | l -> l

let scenario_conv =
  let parse s =
    match Option.bind (int_of_string_opt s) Scenario.of_id with
    | Some sc -> Ok sc
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "scenario must be 1-8 (adversarial 9-10, MRT/damping 13-14, \
               churn 16; the multi-router 11, 12 and 15 run under `bgpbench \
               topo'), got %S"
              s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_int ppf s.Scenario.id)

let json_t =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let print_json j = print_endline (Bgp_stats.Json.to_string_pretty j)

(* Structured tracing (--trace): shared by table3, faults, and topo. *)

let trace_file_t =
  let doc =
    "Record structured trace events and write them to $(docv) as Chrome \
     trace-event JSON (load in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_sample_t =
  let doc =
    "Trace every $(docv)th update batch and scheduler event (1 = trace \
     everything); bounds trace size on large runs."
  in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N" ~doc)

let make_tracer trace_file sample =
  Option.map (fun _ -> Bgp_trace.Tracer.create ~sample ()) trace_file

(* Write the Chrome JSON whenever a file was requested; print the
   trace summary only in text mode so --json output stays parseable. *)
let finish_trace ?(quiet = false) trace_file tracer =
  match (trace_file, tracer) with
  | Some path, Some tr ->
    Bgp_trace.Chrome.write_file tr path;
    if not quiet then begin
      print_newline ();
      print_string (Bgp_trace.Summary.render tr);
      Printf.printf "Chrome trace written to %s\n" path
    end
  | _, _ -> ()

let scenarios_t =
  let doc =
    "Scenarios to run (repeatable); default: the paper's eight (9-10 are \
     the adversarial fault-injection extensions, 13-14 the MRT replay and \
     flap-damping extensions, 16 subscriber churn)."
  in
  Arg.(
    value & opt_all scenario_conv []
    & info [ "s"; "scenario" ] ~docv:"1-10,13,14,16" ~doc)

let resolve_scenarios = function [] -> Scenario.all | l -> l

let crosscheck_t =
  let doc =
    "Run the scenario on each system in both sim and live (loopback TCP) \
     mode and assert identical Loc-RIB fingerprints and verdicts; exits \
     non-zero on divergence."
  in
  Arg.(value & flag & info [ "crosscheck" ] ~doc)

(* Run every (scenario, system) cell, or with [crosscheck] run it in
   both sim and live mode, and print the cells as text or JSON.
   [extra] prints a command's own lines after a cell's text block.
   Returns whether every cell passed. *)
let run_cells ?(json = false) ?(crosscheck = false) ?(live = false)
    ?(live_timeout = 120.0) ?(extra = fun _ _ -> ()) ~config archs scenarios =
  let cells =
    List.concat_map
      (fun sc -> List.map (fun arch -> (arch, sc)) (resolve_archs archs))
      scenarios
  in
  let print to_json pp cells =
    if json then print_json (Bgp_stats.Json.List (List.map to_json cells))
    else List.iter pp cells
  in
  if crosscheck then begin
    let checks =
      List.map
        (fun (arch, sc) -> H.cross_validate ~config ~live_timeout arch sc)
        cells
    in
    print H.crosscheck_json (Format.printf "%a@." H.pp_crosscheck) checks;
    List.for_all H.crosscheck_ok checks
  end
  else begin
    let config = apply_live live live_timeout config in
    let runs =
      List.map (fun (arch, sc) -> (arch, H.run ~config arch sc)) cells
    in
    print
      (fun (_, r) -> H.result_json r)
      (fun (arch, r) ->
        Format.printf "%a@." H.pp_result r;
        extra arch r)
      runs;
    List.for_all (fun (_, r) -> Result.is_ok r.H.verified) runs
  end

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let scenarios_cmd =
  let run () = print_string (Scenario.table1 ()) in
  Cmd.v (Cmd.info "scenarios" ~doc:"Print Table I (the eight benchmark scenarios)")
    Term.(const run $ const ())

let systems_cmd =
  let run verbose =
    print_endline "Table II: system configurations";
    List.iter (fun a -> Format.printf "  %a@." Arch.pp a) Arch.all;
    if verbose then
      List.iter (fun a -> Format.printf "@.%a@." Arch.pp_block_diagram a) Arch.all
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print Fig. 2 block diagrams.")
  in
  Cmd.v (Cmd.info "systems" ~doc:"Print Table II (the four router systems)")
    Term.(const run $ verbose)

let varied_t =
  Arg.(
    value & flag
    & info [ "varied-paths" ]
        ~doc:
          "Use an Internet-shaped workload (2-6 hop AS paths, mixed            origins/MEDs) instead of the paper's uniform paths.")

let table_file_t =
  let doc =
    "Load the phase-1 routing table from $(docv) instead of synthesizing \
     one.  The format is auto-detected: MRT TABLE_DUMP_V2 (RFC 6396 \
     binary) or bgpmark text (`# bgpmark-table v1').  Overrides --size."
  in
  Arg.(
    value
    & opt (some file) None
    & info [ "table"; "mrt" ] ~docv:"FILE" ~doc)

let table3_cmd =
  let run size packing seed varied table_file archs scenarios no_paper prefixes
      json trace_file trace_sample live live_timeout =
    match prefixes with
    | _ :: _ ->
      (* Full-table scale mode: instead of the 8x4 grid, sweep the
         attribute arena over the requested table sizes (up to 500k). *)
      let sweep = Bgpmark.Arena_sweep.run ~seed ~packing prefixes in
      if json then print_json (Bgpmark.Arena_sweep.to_json sweep)
      else print_string (Bgpmark.Arena_sweep.render sweep)
    | [] ->
      let tracer = make_tracer trace_file trace_sample in
      let config =
        apply_live live live_timeout
          { (config_of ~varied size packing seed) with
            H.tracer; table_file }
      in
      let t =
        Bgpmark.Table3.run ~config
          ~archs:(resolve_archs archs)
          ~scenarios:(resolve_scenarios scenarios) ()
      in
      if json then print_json (Bgpmark.Table3.to_json t)
      else begin
        print_string (Bgpmark.Table3.render ~compare_paper:(not no_paper) t);
        print_endline "\nShape criteria (DESIGN.md section 5):";
        List.iter
          (fun (desc, ok) ->
            Printf.printf "  [%s] %s\n" (if ok then "PASS" else "fail") desc)
          (Bgpmark.Table3.shape_checks t)
      end;
      finish_trace ~quiet:json trace_file tracer;
      (* A failed verification fails the command; the shape criteria
         only report. *)
      if
        List.exists
          (fun (_, rs) ->
            List.exists (fun (_, r) -> Result.is_error r.H.verified) rs)
          t.Bgpmark.Table3.cells
      then exit 1
  in
  let no_paper =
    Arg.(value & flag & info [ "no-paper" ] ~doc:"Omit the paper-comparison rows.")
  in
  let prefixes_t =
    let doc =
      "Run the attribute-arena full-table scale sweep at this table size \
       instead of the scenario grid (repeatable, e.g. --prefixes 250000 \
       --prefixes 500000)."
    in
    Arg.(value & opt_all int [] & info [ "prefixes" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "table3"
       ~doc:"Reproduce Table III: transactions/s, 8 scenarios x 4 systems")
    Term.(
      const run $ size_t $ packing_t $ seed_t $ varied_t $ table_file_t
      $ archs_t $ scenarios_t $ no_paper $ prefixes_t $ json_t
      $ trace_file_t $ trace_sample_t $ live_t $ live_timeout_t)

let scenario_cmd =
  let run size packing seed archs scenario cross trace =
    let config = config_of size packing seed in
    let config =
      { config with
        H.cross_traffic = cross;
        trace_interval = (if trace then Some 1.0 else None) }
    in
    let extra arch r =
      if trace then
        print_string
          Bgpmark.Figures.(render_cpu (cpu_figure ~cross_mbps:cross arch r))
    in
    if not (run_cells ~extra ~config archs [ scenario ]) then exit 1
  in
  let scenario =
    Arg.(required & pos 0 (some scenario_conv) None & info [] ~docv:"SCENARIO")
  in
  let cross =
    Arg.(value & opt float 0.0 & info [ "cross" ] ~docv:"MBPS" ~doc:"Cross-traffic load.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Record and print the CPU-load trace.")
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Run a single benchmark scenario")
    Term.(const run $ size_t $ packing_t $ seed_t $ archs_t $ scenario $ cross $ trace)

let fig_cmd name doc f =
  let run size packing seed tsv =
    let config = config_of size packing seed in
    let figs = f ~config () in
    if tsv then
      List.iter
        (fun fig ->
          Printf.printf "# %s\n" fig.Bgpmark.Figures.title;
          print_string (Bgp_stats.Chart.to_tsv fig.Bgpmark.Figures.rows);
          Option.iter
            (fun s -> print_string (Bgp_stats.Chart.to_tsv [ s ]))
            fig.Bgpmark.Figures.forwarding_rate)
        figs
    else print_string (Bgpmark.Figures.render_all figs)
  in
  let tsv =
    Arg.(value & flag & info [ "tsv" ] ~doc:"Emit tab-separated data instead of charts.")
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ size_t $ packing_t $ seed_t $ tsv)

let fig3_cmd =
  fig_cmd "fig3" "Figure 3: per-process CPU load during scenario 6"
    (fun ~config () -> Bgpmark.Figures.fig3 ~config ())

let fig4_cmd =
  fig_cmd "fig4" "Figure 4: Pentium III CPU load, small vs large packets"
    (fun ~config () -> Bgpmark.Figures.fig4 ~config ())

let fig6_cmd =
  fig_cmd "fig6"
    "Figure 6: scenario 8 on the Pentium III with and without cross-traffic"
    (fun ~config () -> Bgpmark.Figures.fig6 ~config ())

let fig5_cmd =
  let run size packing seed archs scenarios tsv =
    let config = config_of size packing seed in
    List.iter
      (fun sc ->
        let sweep =
          Bgpmark.Sweep.run ~config ~archs:(resolve_archs archs) sc
        in
        if tsv then begin
          Printf.printf "# benchmark %d\n" sc.Scenario.id;
          print_string (Bgp_stats.Chart.to_tsv (Bgpmark.Sweep.tps_series sweep))
        end
        else print_string (Bgpmark.Sweep.render sweep);
        print_newline ())
      (resolve_scenarios scenarios)
  in
  let tsv =
    Arg.(value & flag & info [ "tsv" ] ~doc:"Emit tab-separated data instead of charts.")
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:"Figure 5: transactions/s vs cross-traffic, per scenario panel")
    Term.(const run $ size_t $ packing_t $ seed_t $ archs_t $ scenarios_t $ tsv)

let power_cmd =
  let run size packing seed archs scenarios =
    print_endline
      "Control-plane energy efficiency (extension; paper section V.C):";
    List.iter
      (fun scenario ->
        List.iter
          (fun arch ->
            let config =
              { (config_of size packing seed) with H.trace_interval = Some 0.5 }
            in
            let r = H.run ~config arch scenario in
            let report =
              Bgp_router.Power.of_run arch ~scenario_id:scenario.Scenario.id
                ~tps:r.H.tps ~measure_seconds:r.H.measure_seconds
                ~trace:r.H.trace ~transactions:r.H.measured_prefixes
            in
            Format.printf "  %a@." Bgp_router.Power.pp_report report)
          (resolve_archs archs);
        print_newline ())
      (resolve_scenarios scenarios)
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:
         "Transactions per joule of control-plane energy (the power \
          tradeoff the paper defers)")
    Term.(const run $ size_t $ packing_t $ seed_t $ archs_t $ scenarios_t)

let peers_cmd =
  let run size seed archs counts json =
    let counts = match counts with [] -> [ 2; 4; 8; 16 ] | l -> l in
    let sweeps =
      List.map
        (fun arch -> Bgpmark.Peers_sweep.run ~table_size:size ~seed ~counts arch)
        (resolve_archs archs)
    in
    if json then
      print_json (Bgp_stats.Json.List (List.map Bgpmark.Peers_sweep.to_json sweeps))
    else
      List.iter
        (fun sweep ->
          print_string (Bgpmark.Peers_sweep.render sweep);
          print_newline ())
        sweeps
  in
  let counts =
    Arg.(
      value & opt_all int []
      & info [ "peers" ] ~docv:"N" ~doc:"Peer counts to sweep (repeatable).")
  in
  Cmd.v
    (Cmd.info "peers"
       ~doc:
         "Extension: transactions/s vs peering density (the paper uses           exactly two speakers)")
    Term.(const run $ size_t $ seed_t $ archs_t $ counts $ json_t)

let faults_cmd =
  let run size packing seed rounds damping archs scenarios json trace_file
      trace_sample live live_timeout =
    let scenarios =
      match scenarios with [] -> Scenario.adversarial | l -> l
    in
    let tracer = make_tracer trace_file trace_sample in
    let config =
      { (config_of size packing seed) with
        H.fault_rounds = rounds; tracer;
        damping =
          (if damping then Some Bgp_rib.Damping.test_config else None) }
    in
    let pp_codes =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        (fun ppf (c, s) -> Format.fprintf ppf "%d/%d" c s)
    in
    let extra _ r =
      Option.iter
        (fun f ->
          if f.H.fr_expected <> [] then
            Format.printf
              "  expected NOTIFICATIONs (code/subcode): %a@.  answered \
               NOTIFICATIONs (code/subcode): %a@."
              pp_codes f.H.fr_expected pp_codes f.H.fr_answered)
        r.H.faults
    in
    let ok =
      run_cells ~json ~live ~live_timeout ~extra ~config archs scenarios
    in
    finish_trace ~quiet:json trace_file tracer;
    if not ok then exit 1
  in
  let rounds =
    Arg.(
      value & opt int 5
      & info [ "rounds" ] ~docv:"N" ~doc:"Fault injections per run.")
  in
  let damping =
    Arg.(
      value & flag
      & info [ "damping" ]
          ~doc:
            "Enable RFC 2439 route flap damping (accelerated test timers) on \
             the router under test; the fault oracle then additionally \
             verifies that flapping routes were suppressed and later \
             reused.  Scenario 14 enables damping implicitly.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the adversarial fault-injection scenarios (9: corrupted-update \
          storm, 10: session flaps, 14: flap storm with RFC 2439 damping); \
          exits non-zero if any verification fails")
    Term.(
      const run $ size_t $ packing_t $ seed_t $ rounds $ damping $ archs_t
      $ scenarios_t $ json_t $ trace_file_t $ trace_sample_t $ live_t
      $ live_timeout_t)

let mrt_cmd =
  let run size packing seed file events speedup archs json crosscheck live
      live_timeout =
    let config =
      { (config_of size packing seed) with
        H.table_file = file;
        replay_events = events;
        replay_speedup = speedup }
    in
    if
      not
        (run_cells ~json ~crosscheck ~live ~live_timeout ~config archs
           [ Scenario.of_id_exn 13 ])
    then exit 1
  in
  let file_t =
    let doc =
      "Replay this MRT dump (RFC 6396: TABLE_DUMP_V2 RIB entries load the \
       table, BGP4MP updates drive the replay).  Without it a dump is \
       synthesized from --seed/--size/--events, so no external trace is \
       needed."
    in
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let events_t =
    let doc =
      "Number of update events to synthesize for the replay phase (0 = \
       table load only; default: about size/5).  Ignored with --file."
    in
    Arg.(value & opt (some int) None & info [ "events" ] ~docv:"N" ~doc)
  in
  let speedup_t =
    let doc =
      "Replay the trace at recorded timing accelerated by this factor \
       (1 = real time).  Default: unpaced, i.e. maximum-throughput replay."
    in
    Arg.(value & opt (some float) None & info [ "speedup" ] ~docv:"X" ~doc)
  in
  Cmd.v
    (Cmd.info "mrt"
       ~doc:
         "Scenario 13: load an MRT RIB dump and replay its update trace \
          (synthesized by default; bring your own with --file); exits \
          non-zero if verification fails")
    Term.(
      const run $ size_t $ packing_t $ seed_t $ file_t $ events_t $ speedup_t
      $ archs_t $ json_t $ crosscheck_t $ live_t $ live_timeout_t)

let churn_cmd =
  let module Subscriber = Bgp_speaker.Subscriber in
  let run subscribers batch batch_interval churn_rate churn_duration seed archs
      json metrics crosscheck live live_timeout =
    let sub_cfg =
      { Subscriber.subscribers; batch; batch_interval; churn_rate;
        churn_duration; seed }
    in
    let config =
      { H.default_config with
        H.table_size = subscribers; seed; churn = Some sub_cfg }
    in
    let extra _ r =
      if metrics && r.H.churn <> None then
        Format.printf "%s metrics registry:@.%s@." r.H.arch_name
          Bgp_stats.(Json.to_string_pretty (Metrics.to_json r.H.metrics))
    in
    if
      not
        (run_cells ~json ~crosscheck ~live ~live_timeout ~extra ~config archs
           [ Scenario.of_id_exn 16 ])
    then exit 1
  in
  let subscribers_t =
    let doc =
      "Subscriber sessions, one /32 route each, drawn from the RFC 6598 \
       CGNAT pool 100.64.0.0/10 (max 4194304)."
    in
    Arg.(
      value & opt int 10_000
      & info [ "subscribers" ] ~docv:"N" ~doc)
  in
  let batch_t =
    let doc =
      "Prefixes per injection batch (and per-UPDATE packing, split where an \
       UPDATE would exceed 4096 bytes)."
    in
    Arg.(value & opt int 500 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let batch_interval_t =
    let doc = "Seconds between injection batches (rate-limited injection)." in
    Arg.(
      value & opt float 0.02 & info [ "batch-interval" ] ~docv:"SECONDS" ~doc)
  in
  let churn_rate_t =
    let doc = "Session up/down/resync events per second during churn." in
    Arg.(value & opt float 500.0 & info [ "churn-rate" ] ~docv:"EV_S" ~doc)
  in
  let churn_duration_t =
    let doc = "Seconds of steady-state churn before the failover." in
    Arg.(
      value & opt float 2.0 & info [ "churn-duration" ] ~docv:"SECONDS" ~doc)
  in
  let metrics_t =
    let doc =
      "Also dump the router's full metrics registry (counters, histograms, \
       gauges) after the run — the stand-in for Prometheus scrape targets.  \
       With --json the dump is always embedded under churn.metrics."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Scenario 16: subscriber-edge churn at BNG scale — rate-limited /32 \
          injection against an exact prefix limit with MRAI on, steady-state \
          session churn, then a failover whose withdraw sweep is timed \
          end-to-end; exits non-zero if verification fails")
    Term.(
      const run $ subscribers_t $ batch_t $ batch_interval_t $ churn_rate_t
      $ churn_duration_t $ seed_t $ archs_t $ json_t $ metrics_t $ crosscheck_t
      $ live_t $ live_timeout_t)

let topo_cmd =
  let module Topology = Bgp_topo.Topology in
  let module Net = Bgp_topo.Net in
  let module TB = Bgp_topo.Topo_bench in
  let kind_conv =
    let parse s =
      match Topology.kind_of_string s with
      | Some k -> Ok k
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown topology %S (expected %s)" s
                (String.concat ", "
                   (List.map Topology.kind_to_string Topology.all_kinds))))
    in
    Arg.conv
      (parse, fun ppf k -> Format.pp_print_string ppf (Topology.kind_to_string k))
  in
  let run kind nodes seed gao cut domains json trace_file trace_sample =
    if domains <> [] then begin
      (* Scenario 15: partitioned scale runs.  Each requested node count
         runs once per requested domain count; converged fingerprints
         must agree across domain counts for the same graph. *)
      let domain_list = List.sort_uniq compare domains in
      (match List.find_opt (fun d -> d < 1) domain_list with
      | Some d ->
        Printf.eprintf "topo: --domains %d: need at least 1\n" d;
        exit 2
      | None -> ());
      let sizes =
        match nodes with [] -> [ 1000 ] | l -> List.sort_uniq compare l
      in
      let mode = if gao then Some Net.Gao_rexford else None in
      let runs =
        List.concat_map
          (fun n ->
            List.map
              (fun d -> TB.run_scale ?mode ~seed ~domains:d ~kind ~n ())
              domain_list)
          sizes
      in
      if json then print_json (TB.scale_runs_json runs)
      else print_string (TB.render_scale_runs runs);
      let mismatch =
        List.exists
          (fun n ->
            let fps =
              List.filter_map
                (fun r ->
                  if r.TB.sc_n = n then Some r.TB.sc_fingerprint else None)
                runs
            in
            List.exists (fun f -> f <> List.hd fps) fps)
          sizes
      in
      if mismatch then begin
        prerr_endline
          "topo scale: converged fingerprints differ across domain counts";
        exit 1
      end;
      if List.exists (fun r -> Result.is_error r.TB.sc_verified) runs then
        exit 1
    end
    else begin
      let sizes = match nodes with [] -> [ 4; 8; 16 ] | l -> List.sort_uniq compare l in
      let mode = if gao then Net.Gao_rexford else Net.Transit in
      let tracer = make_tracer trace_file trace_sample in
      let runs =
        List.map (fun n -> TB.run_scale ~mode ~seed ?tracer ~kind ~n ()) sizes
      in
      let lf =
        TB.run_link_failure ~mode ~seed ?cut ?tracer ~kind
          ~n:(List.fold_left max 2 sizes) ()
      in
      if json then
        print_json
          (Bgp_stats.Json.Obj
             [ ("convergence", TB.convergence_runs_json runs);
               ("link_failure", TB.link_failure_json lf) ])
      else begin
        print_string (TB.render_convergence_runs runs);
        print_newline ();
        print_string (TB.render_link_failure lf)
      end;
      finish_trace ~quiet:json trace_file tracer;
      let bad r = Result.is_error r in
      if
        bad lf.TB.lf_verified
        || List.exists (fun r -> bad r.TB.sc_verified) runs
      then exit 1
    end
  in
  let kind =
    Arg.(
      value
      & opt kind_conv Topology.Scale_free
      & info [ "k"; "kind" ] ~docv:"TOPOLOGY"
          ~doc:
            "Graph family: line, ring, star, grid, clique, or scale-free \
             (seeded Barabasi-Albert).")
  in
  let nodes =
    Arg.(
      value & opt_all int []
      & info [ "nodes" ] ~docv:"N"
          ~doc:"Node counts for the convergence sweep (repeatable); default 4 8 16.")
  in
  let gao =
    Arg.(
      value & flag
      & info [ "gao-rexford" ]
          ~doc:
            "Use Gao-Rexford customer/peer/provider policies per edge \
             instead of full-mesh transit.")
  in
  let cut =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "cut" ] ~docv:"U,V"
          ~doc:
            "Edge to fail in the link-failure run (default: the first cut \
             the graph survives).")
  in
  let domains =
    Arg.(
      value & opt_all int []
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Run scenario 15 (partitioned scale) instead of 11/12: \
             single-origin convergence with the network split over $(docv) \
             parallel simulation domains.  Repeatable; each node count runs \
             once per domain count and the converged fingerprints must \
             match.  Default node count 1000; policies default to \
             Gao-Rexford (accept-all transit path-hunts combinatorially at \
             scale).")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Multi-router topology benchmarks (scenario 11: convergence sweep; \
          scenario 12: link failure and path hunting; scenario 15: \
          partitioned scale with --domains); exits non-zero if verification \
          fails")
    Term.(
      const run $ kind $ nodes $ seed_t $ gao $ cut $ domains $ json_t
      $ trace_file_t $ trace_sample_t)

let crosscheck_cmd =
  let run size packing seed archs scenarios live_timeout json =
    let scenarios =
      match scenarios with
      | [] -> [ Scenario.of_id_exn 2; Scenario.of_id_exn 10 ]
      | l -> l
    in
    let config = config_of size packing seed in
    if
      not
        (run_cells ~json ~crosscheck:true ~live_timeout ~config archs
           scenarios)
    then exit 1
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:
         "Run the same scenario in sim and live (loopback TCP) mode and \
          assert identical Loc-RIB fingerprints and verification verdicts; \
          exits non-zero on divergence")
    Term.(
      const run $ size_t $ packing_t $ seed_t $ archs_t $ scenarios_t
      $ live_timeout_t $ json_t)

let all_cmd =
  let run size packing seed =
    let config = config_of size packing seed in
    print_string (Scenario.table1 ());
    print_endline "";
    List.iter (fun a -> Format.printf "  %a@." Arch.pp a) Arch.all;
    print_endline "";
    let t = Bgpmark.Table3.run ~config () in
    print_string (Bgpmark.Table3.render t);
    print_endline "\nShape criteria:";
    List.iter
      (fun (desc, ok) ->
        Printf.printf "  [%s] %s\n" (if ok then "PASS" else "fail") desc)
      (Bgpmark.Table3.shape_checks t);
    print_endline "\n=== Figure 3 ===";
    print_string (Bgpmark.Figures.render_all (Bgpmark.Figures.fig3 ~config ()));
    print_endline "\n=== Figure 4 ===";
    print_string (Bgpmark.Figures.render_all (Bgpmark.Figures.fig4 ~config ()));
    print_endline "\n=== Figure 5 ===";
    List.iter
      (fun sc ->
        print_string (Bgpmark.Sweep.render (Bgpmark.Sweep.run ~config sc));
        print_newline ())
      Scenario.all;
    print_endline "\n=== Figure 6 ===";
    print_string (Bgpmark.Figures.render_all (Bgpmark.Figures.fig6 ~config ()))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure (the EXPERIMENTS.md run)")
    Term.(const run $ size_t $ packing_t $ seed_t)

let main_cmd =
  let doc = "Benchmarking BGP routers: IISWC 2007 reproduction" in
  let info = Cmd.info "bgpbench" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ scenarios_cmd; systems_cmd; table3_cmd; scenario_cmd; fig3_cmd; fig4_cmd;
      fig5_cmd; fig6_cmd; power_cmd; peers_cmd; faults_cmd; mrt_cmd;
      churn_cmd; crosscheck_cmd; topo_cmd; all_cmd ]

let () =
  try exit (Cmd.eval ~catch:false main_cmd) with
  | Failure msg ->
    Printf.eprintf "bgpbench: %s\n" msg;
    exit 1
  (* A knob the library rejects (packing, batch size, subscriber count,
     churn rate, peer count): a usage error, not a crash. *)
  | Invalid_argument msg ->
    Printf.eprintf "bgpbench: %s\n" msg;
    exit 2
