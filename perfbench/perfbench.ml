(* Host-speed benchmark of bgpmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last line of standard output,
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with
   --trace 1.  [--workload all] runs every workload untraced and prints
   the seven headline figures by name.  [--spec] prints BENCHMARK.json;
   [--self-test FILE] runs every workload at toy size and checks the
   metric set, the oracles, and that tracing leaves results unchanged.
   See BENCHMARK.md beside this file. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (* end-to-end metrics only *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let command = [ "sh"; "perfbench/run.sh" ]
let paths = [ "perfbench" ]
let run_seconds = 20

let workloads =
  [ ( "full-table",
      "in-process decode, RIB, FIB and export of a 250k-prefix table \
       (load, challenger, failover): per-prefix work on ~80 MB of routing \
       state" );
    ( "live-loopback",
      "scenario 7 over real loopback TCP on an unpaced router, one prefix \
       per UPDATE: the only workload on bgp_tcp, dominated by per-message \
       costs" );
    ( "topo-scale",
      "scenario 15 on a 5000-node scale-free graph over two simulation \
       domains: engine events and costed scheduling, with one-prefix \
       tables" ) ]

let end_to_end =
  [ e2e "throughput" "1/s" Higher 0.25; e2e "setup_s" "s" Lower 0.25 ]

let per_layer =
  [ (* untraced reference figures, by workload *)
    layer "table_load_pfx_s" "pfx/s" Higher;
    layer "challenger_pfx_s" "pfx/s" Higher;
    layer "failover_pfx_s" "pfx/s" Higher;
    layer "rib_bytes_per_route" "B/route" Lower;
    layer "live_pfx_s" "pfx/s" Higher;
    layer "topo_events_s" "events/s" Higher;
    (* bgp_wire *)
    layer "wire.decode_ns_per_msg" "ns" Lower;
    layer "wire.encode_ns_per_msg" "ns" Lower;
    layer "wire.msgs_decoded" "count" Lower;
    (* bgp_route arena *)
    layer "arena.hit_ratio" "ratio" Higher;
    layer "arena.live_sets" "count" Lower;
    (* bgp_rib *)
    layer "rib.announce_ns_p50" "ns" Lower;
    layer "rib.announce_ns_p99" "ns" Lower;
    layer "rib.withdraw_ns_p50" "ns" Lower;
    layer "rib.withdraw_ns_p99" "ns" Lower;
    layer "rib.fastpath_ratio" "ratio" Higher;
    layer "rib.candidates_per_decision" "count" Lower;
    (* bgp_fib *)
    layer "fib.apply_ns_p50" "ns" Lower;
    layer "fib.apply_ns_p99" "ns" Lower;
    layer "fib.adds" "count" Lower;
    layer "fib.replaces" "count" Lower;
    layer "fib.withdraws" "count" Lower;
    layer "fib.noop_ratio" "ratio" Lower;
    (* OCaml runtime *)
    layer "gc.alloc_b_per_update.load" "B/update" Lower;
    layer "gc.alloc_b_per_update.challenger" "B/update" Lower;
    layer "gc.alloc_b_per_update.failover" "B/update" Lower;
    layer "gc.major_collections" "count" Lower;
    (* bgp_tcp *)
    layer "tcp.reads" "count" Lower;
    layer "tcp.bytes_per_read" "B" Higher;
    layer "tcp.idle_share" "ratio" Lower;
    (* bgp_router ingest *)
    layer "router.ingest_ns_per_msg" "ns" Lower;
    layer "router.sends_per_pfx" "count" Lower;
    (* bgp_sim Sched via the router's clock *)
    layer "sched.callbacks_per_pfx" "count" Lower;
    layer "sched.callback_ns_p50" "ns" Lower;
    layer "sched.callback_ns_p99" "ns" Lower;
    (* bgp_speaker *)
    layer "speaker.ingest_ns_per_msg" "ns" Lower;
    layer "speaker.busy_share" "ratio" Lower;
    (* bgp_sim Pengine + bgp_topo *)
    layer "sim.events" "count" Lower;
    layer "sim.domain_imbalance" "ratio" Lower;
    layer "topo.establish_s" "s" Lower;
    layer "topo.announce_s" "s" Lower;
    layer "topo.withdraw_s" "s" Lower;
    layer "topo.updates_per_node" "count" Lower;
    (* tracing *)
    layer "trace.overhead_pct" "%" Lower ]

(* The seven headline figures [--workload all] prints. *)
let headline =
  [ "table_load_pfx_s"; "challenger_pfx_s"; "failover_pfx_s";
    "rib_bytes_per_route"; "live_pfx_s"; "topo_events_s"; "setup_s" ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let quote s = "\"" ^ Bgp_stats.Json.escape s ^ "\""
let strings l = "[" ^ String.concat ", " (List.map quote l) ^ "]"

let spec_json () =
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (quote m.name) (quote m.unit_)
      (quote (match m.better with Higher -> "higher" | Lower -> "lower"))
      (match m.bound with
      | Some b -> Printf.sprintf ", \"bound\": %g" b
      | None -> "")
  in
  let block items = "[\n" ^ String.concat ",\n" items ^ "\n  ]" in
  String.concat ""
    [ "{\n";
      "  \"command\": "; strings command; ",\n";
      "  \"paths\": "; strings paths; ",\n";
      "  \"run_seconds\": "; string_of_int run_seconds; ",\n";
      "  \"workloads\": ";
      block
        (List.map
           (fun (name, why) ->
             Printf.sprintf "    {\"name\": %s, \"why\": %s}" (quote name)
               (quote why))
           workloads);
      ",\n";
      "  \"end_to_end\": "; block (List.map metric end_to_end); ",\n";
      "  \"per_layer\": "; block (List.map metric per_layer); "\n";
      "}\n" ]

(* ------------------------------------------------------------------ *)
(* Running and reporting                                               *)
(* ------------------------------------------------------------------ *)

let run_workload ~toy ~seed ~seconds ~trace name =
  match name with
  | "full-table" ->
    Full_table.run ~seed ~seconds ~trace
      (if toy then Full_table.toy else Full_table.full)
  | "live-loopback" ->
    Live_loopback.run ~seed ~seconds ~trace
      (if toy then Live_loopback.toy else Live_loopback.full)
  | "topo-scale" ->
    Topo_scale.run ~seed ~seconds ~trace
      (if toy then Topo_scale.toy else Topo_scale.full)
  | other -> invalid_arg ("unknown workload " ^ other)

let unit_of name =
  (List.find (fun m -> m.name = name) (end_to_end @ per_layer)).unit_

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The result line, metrics in the order given. *)
let result_json ~correct ~attempted ~failed metrics =
  let metric (name, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote name) (number v)
      (quote (unit_of name))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* A per-layer metric of a layer the workload never touches reads 0;
   end-to-end metrics must all be measured, positive and finite. *)
let render ~trace (r : Probe.report) =
  let value name = Option.value ~default:0.0 (List.assoc_opt name r.metrics) in
  let wanted = if trace then per_layer else end_to_end in
  let measured =
    trace
    || List.for_all
         (fun m -> Float.is_finite (value m.name) && value m.name > 0.0)
         end_to_end
  in
  result_json
    ~correct:(measured && r.failed = 0)
    ~attempted:r.attempted ~failed:r.failed
    (List.map (fun m -> (m.name, value m.name)) wanted)

(* Setup time of [all] is the sum over workloads. *)
let run_all ~seed ~seconds =
  let reports =
    List.map
      (fun (name, _) -> run_workload ~toy:false ~seed ~seconds ~trace:false name)
      workloads
  in
  let sum f = List.fold_left (fun a (r : Probe.report) -> a + f r) 0 reports in
  let value name =
    if name = "setup_s" then
      List.fold_left
        (fun a (r : Probe.report) -> a +. List.assoc name r.metrics)
        0.0 reports
    else
      List.assoc name (List.concat_map (fun (r : Probe.report) -> r.metrics) reports)
  in
  List.iter (fun (r : Probe.report) -> List.iter print_endline r.notes) reports;
  let failed = sum (fun r -> r.failed) in
  print_endline
    (result_json ~correct:(failed = 0)
       ~attempted:(sum (fun r -> r.attempted))
       ~failed
       (List.map (fun name -> (name, value name)) headline))

(* ------------------------------------------------------------------ *)
(* Self-test at toy sizes                                              *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let self_test spec_path =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  check (spec_path ^ " matches the spec in perfbench.ml")
    (read_file spec_path = spec_json ());
  let reported = Hashtbl.create 64 in
  List.iter
    (fun (name, _) ->
      let run trace = run_workload ~toy:true ~seed:1 ~seconds:0.0 ~trace name in
      let plain = run false and traced = run true in
      List.iter
        (fun (trace, (r : Probe.report)) ->
          let mode = if trace then "traced" else "untraced" in
          let line = render ~trace r in
          check (Printf.sprintf "%s %s: oracle" name mode) (r.failed = 0);
          check
            (Printf.sprintf "%s %s: correct" name mode)
            (contains line "\"correct\": true");
          List.iter
            (fun m ->
              check
                (Printf.sprintf "%s %s: %s printed with unit %s" name mode m.name
                   m.unit_)
                (contains line
                   (Printf.sprintf "%s: {\"value\": " (quote m.name))
                && contains line (Printf.sprintf "\"unit\": %s" (quote m.unit_))))
            (if trace then per_layer else end_to_end);
          List.iter (fun (k, _) -> Hashtbl.replace reported k ()) r.metrics)
        [ (false, plain); (true, traced) ];
      check
        (name ^ ": traced and untraced fingerprints agree")
        (plain.fingerprint = traced.fingerprint))
    workloads;
  List.iter
    (fun m ->
      check (m.name ^ " is measured by some workload") (Hashtbl.mem reported m.name))
    per_layer;
  match !failures with
  | [] -> print_endline "perfbench self-test: ok"
  | fs ->
    List.iter (fun f -> prerr_endline ("FAIL " ^ f)) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 in
  let trace = ref 0 and self = ref "" and spec = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME full-table | live-loopback | topo-scale | all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--trace-dir", Arg.Set_string Probe.trace_dir,
       "DIR where traced runs write Chrome traces (default perfbench/out)");
      ("--self-test", Arg.Set_string self,
       "FILE check FILE against the spec and run every workload at toy size");
      ("--spec", Arg.Set spec, " print BENCHMARK.json") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !spec then print_string (spec_json ())
  else if !self <> "" then self_test !self
  else if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds
  else if List.mem_assoc !workload workloads then begin
    let trace = !trace = 1 in
    let r =
      run_workload ~toy:false ~seed:!seed ~seconds:!seconds ~trace !workload
    in
    List.iter print_endline r.notes;
    print_endline (render ~trace r)
  end
  else begin
    prerr_endline "perfbench: --workload must name a workload (see --help)";
    exit 2
  end
