(* Unit tests for the benchmark-definition and reporting modules:
   Scenario (Table I), Arch (Table II), Sweep/Figures plumbing, and the
   bgp_stats helpers. *)

module Scenario = Bgpmark.Scenario
module Arch = Bgp_router.Arch
module Chart = Bgp_stats.Chart

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Scenario (Table I)                                                  *)
(* ------------------------------------------------------------------ *)

let test_scenario_table1_structure () =
  Alcotest.(check int) "eight scenarios" 8 (List.length Scenario.all);
  List.iteri
    (fun i sc -> Alcotest.(check int) "ids in order" (i + 1) sc.Scenario.id)
    Scenario.all;
  (* Table I row: FIB changes everywhere except scenarios 5-6. *)
  List.iter
    (fun sc ->
      let expect = not (List.mem sc.Scenario.id [ 5; 6 ]) in
      Alcotest.(check bool)
        (Printf.sprintf "fib changes scenario %d" sc.Scenario.id)
        expect
        (Scenario.forwarding_table_changes sc))
    Scenario.all;
  (* packet sizes alternate small/large *)
  List.iter
    (fun sc ->
      let expect_small = sc.Scenario.id mod 2 = 1 in
      Alcotest.(check int)
        (Printf.sprintf "packing scenario %d" sc.Scenario.id)
        (if expect_small then 1 else 500)
        (Scenario.packing sc))
    Scenario.all

let test_scenario_phases () =
  Alcotest.(check int) "startup measures phase 1" 1
    (Scenario.measures_phase (Scenario.of_id_exn 1));
  List.iter
    (fun id ->
      Alcotest.(check int) "others measure phase 3" 3
        (Scenario.measures_phase (Scenario.of_id_exn id)))
    [ 3; 4; 5; 6; 7; 8 ];
  List.iter
    (fun id ->
      Alcotest.(check bool) "speaker 2 usage" (id >= 5)
        (Scenario.uses_speaker2 (Scenario.of_id_exn id)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_scenario_lookup () =
  Alcotest.(check bool) "of_id 0" true (Scenario.of_id 0 = None);
  Alcotest.(check bool) "of_id 9 is adversarial" true
    (match Scenario.of_id 9 with
    | Some s -> s.Scenario.operation = Scenario.Corrupted_storm
    | None -> false);
  Alcotest.(check bool) "of_id 11 is None" true (Scenario.of_id 11 = None);
  Alcotest.(check bool) "of_id 13 is mrt" true
    (match Scenario.of_id 13 with
    | Some s -> s.Scenario.operation = Scenario.Mrt_replay
    | None -> false);
  Alcotest.(check bool) "of_id 15" true (Scenario.of_id 15 = None);
  Alcotest.(check bool) "of_id 16 is churn" true
    (match Scenario.of_id 16 with
    | Some s -> s.Scenario.operation = Scenario.Subscriber_churn
    | None -> false);
  Alcotest.check_raises "of_id_exn"
    (Invalid_argument "Scenario.of_id_exn: 15 not in 1-10, 13, 14, 16")
    (fun () -> ignore (Scenario.of_id_exn 15));
  let rendered = Scenario.table1 () in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("table1 has " ^ s) true (contains rendered s))
    [ "start-up"; "ending"; "incremental"; "WITHDRAW"; "ANNOUNCE" ]

let test_custom_large_packing () =
  Alcotest.(check int) "custom large" 100
    (Scenario.packing ~large:100 (Scenario.of_id_exn 2));
  Alcotest.(check int) "small unaffected" 1
    (Scenario.packing ~large:100 (Scenario.of_id_exn 1))

(* ------------------------------------------------------------------ *)
(* Arch (Table II)                                                     *)
(* ------------------------------------------------------------------ *)

let test_arch_table2 () =
  Alcotest.(check int) "four systems" 4 (List.length Arch.all);
  Alcotest.(check (list string)) "order"
    [ "pentium3"; "xeon"; "ixp2400"; "cisco3620" ]
    (List.map (fun a -> a.Arch.name) Arch.all);
  List.iter
    (fun a ->
      Alcotest.(check bool) "lookup" true (Arch.by_name a.Arch.name = Some a))
    Arch.all;
  Alcotest.(check bool) "case insensitive" true (Arch.by_name "XEON" <> None);
  Alcotest.(check bool) "unknown" true (Arch.by_name "cray" = None)

let test_arch_parameters_sane () =
  List.iter
    (fun a ->
      Alcotest.(check bool) "positive clock" true (a.Arch.clock_hz > 0.0);
      Alcotest.(check bool) "positive pool" true (a.Arch.pool > 0.0);
      Alcotest.(check bool) "line rate" true (a.Arch.line_rate_mbps > 0.0);
      Alcotest.(check bool) "effective hz" true (Arch.effective_hz a > 0.0))
    Arch.all;
  (* The paper's hardware facts *)
  Alcotest.(check (float 1.0)) "p3 clock MHz" 800.0 (Arch.pentium3.Arch.clock_hz /. 1e6);
  Alcotest.(check (float 1.0)) "xeon clock GHz" 3.0 (Arch.xeon.Arch.clock_hz /. 1e9);
  Alcotest.(check (float 1.0)) "p3 line rate" 315.0 Arch.pentium3.Arch.line_rate_mbps;
  Alcotest.(check (float 1.0)) "cisco line rate" 78.0 Arch.cisco3620.Arch.line_rate_mbps;
  (* structural facts *)
  (match Arch.ixp2400.Arch.forwarding with
  | Bgp_netsim.Forwarding.Dedicated_pps _ -> ()
  | Bgp_netsim.Forwarding.Kernel_shared _ ->
    Alcotest.fail "ixp must have dedicated forwarding");
  match Arch.cisco3620.Arch.software with
  | Arch.Monolithic { pacing_delay_per_msg } ->
    Alcotest.(check bool) "pacing ~93ms" true
      (Float.abs (pacing_delay_per_msg -. 0.093) < 1e-9)
  | Arch.Xorp_pipeline -> Alcotest.fail "cisco must be monolithic"

let test_arch_rendering () =
  List.iter
    (fun a ->
      let line = Format.asprintf "%a" Arch.pp a in
      Alcotest.(check bool) "mentions name" true (contains line a.Arch.name);
      let diagram = Format.asprintf "%a" Arch.pp_block_diagram a in
      Alcotest.(check bool) "diagram nonempty" true (String.length diagram > 40))
    Arch.all

(* ------------------------------------------------------------------ *)
(* Json.escape                                                         *)
(* ------------------------------------------------------------------ *)

(* Inverse of Json.escape, for the roundtrip property: the escaper only
   ever emits the two-character forms and \uXXXX for C0 controls. *)
let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if s.[i] <> '\\' then (Buffer.add_char b s.[i]; go (i + 1))
    else begin
      if i + 1 >= n then failwith "dangling backslash";
      (match s.[i + 1] with
       | '"' -> Buffer.add_char b '"'; go (i + 2)
       | '\\' -> Buffer.add_char b '\\'; go (i + 2)
       | 'n' -> Buffer.add_char b '\n'; go (i + 2)
       | 'r' -> Buffer.add_char b '\r'; go (i + 2)
       | 't' -> Buffer.add_char b '\t'; go (i + 2)
       | 'u' ->
         if i + 5 >= n then failwith "short \\u escape";
         let code = int_of_string ("0x" ^ String.sub s (i + 2) 4) in
         Buffer.add_char b (Char.chr code);
         go (i + 6)
       | c -> failwith (Printf.sprintf "bad escape \\%c" c))
    end
  in
  go 0;
  Buffer.contents b

let prop_json_escape_roundtrip =
  QCheck2.Test.make ~name:"Json.escape roundtrips over control chars"
    ~count:500
    (* Full byte range, biased so control characters actually appear. *)
    QCheck2.Gen.(
      string_size ~gen:(oneof [ int_range 0 31; int_range 0 255 ] >|= Char.chr)
        (int_range 0 64))
    (fun s ->
      let e = Bgp_stats.Json.escape s in
      (* roundtrip, and the escaped text must be safe to embed raw in a
         JSON string: no bare control characters survive *)
      unescape e = s
      && not (String.exists (fun c -> Char.code c < 0x20) e))

let test_json_escape_fixed () =
  Alcotest.(check string) "quote" "a\\\"b" (Bgp_stats.Json.escape "a\"b");
  Alcotest.(check string) "newline" "x\\ny" (Bgp_stats.Json.escape "x\ny");
  Alcotest.(check string) "nul" "\\u0000" (Bgp_stats.Json.escape "\x00")

(* ------------------------------------------------------------------ *)
(* Chart                                                               *)
(* ------------------------------------------------------------------ *)

let series = { Chart.label = "s"; points = [ (0.0, 1.0); (1.0, 10.0); (2.0, 100.0) ] }

let test_chart_render () =
  let out = Chart.render ~x_label:"x" ~y_label:"y" [ series ] in
  Alcotest.(check bool) "has glyph" true (contains out "*");
  Alcotest.(check bool) "legend" true (contains out "* = s");
  let log = Chart.render ~log_y:true ~x_label:"x" ~y_label:"y" [ series ] in
  Alcotest.(check bool) "log notes scale" true (contains log "log scale");
  let empty = Chart.render ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "empty message" true (contains empty "no data")

let test_chart_tsv () =
  let s2 = { Chart.label = "t"; points = [ (0.0, 5.0); (3.0, 6.0) ] } in
  let tsv = Chart.to_tsv [ series; s2 ] in
  let lines = String.split_on_char '\n' (String.trim tsv) in
  Alcotest.(check int) "header + 4 xs" 5 (List.length lines);
  Alcotest.(check string) "header" "x\ts\tt" (List.hd lines);
  Alcotest.(check bool) "gap cell" true (contains tsv "3\t\t6")

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_structure () =
  let config = { Bgpmark.Harness.default_config with Bgpmark.Harness.table_size = 200 } in
  let sweep =
    Bgpmark.Sweep.run ~config ~levels:[ 0.0; 200.0 ]
      ~archs:[ Arch.pentium3; Arch.ixp2400 ]
      (Scenario.of_id_exn 5)
  in
  Alcotest.(check int) "two series" 2 (List.length sweep.Bgpmark.Sweep.series);
  let p3 = List.hd sweep.Bgpmark.Sweep.series in
  (* levels 0, 200, plus the 315 line-rate point *)
  Alcotest.(check int) "p3 points" 3 (List.length p3.Bgpmark.Sweep.points);
  Alcotest.(check bool) "degradation >= 1" true (Bgpmark.Sweep.degradation p3 >= 1.0);
  let ixp = List.nth sweep.Bgpmark.Sweep.series 1 in
  Alcotest.(check (float 0.02)) "ixp flat" 1.0 (Bgpmark.Sweep.degradation ixp);
  let rendered = Bgpmark.Sweep.render sweep in
  Alcotest.(check bool) "render mentions benchmark" true
    (contains rendered "Benchmark 5")

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let test_figures_fig4_contrast () =
  let config = { Bgpmark.Harness.default_config with Bgpmark.Harness.table_size = 300 } in
  match Bgpmark.Figures.fig4 ~config () with
  | [ small; large ] ->
    Alcotest.(check int) "small is scenario 1" 1 small.Bgpmark.Figures.scenario_id;
    Alcotest.(check int) "large is scenario 2" 2 large.Bgpmark.Figures.scenario_id;
    Alcotest.(check bool) "both verified" true
      (small.Bgpmark.Figures.result.Bgpmark.Harness.verified = Ok ()
      && large.Bgpmark.Figures.result.Bgpmark.Harness.verified = Ok ());
    (* small packets take longer on the same workload *)
    Alcotest.(check bool) "small slower" true
      (small.Bgpmark.Figures.result.Bgpmark.Harness.measure_seconds
      > large.Bgpmark.Figures.result.Bgpmark.Harness.measure_seconds);
    let txt = Bgpmark.Figures.render_cpu small in
    Alcotest.(check bool) "renders processes" true (contains txt "xorp_bgp")
  | _ -> Alcotest.fail "fig4 must produce two panels"

let () =
  Alcotest.run "bgpmark core"
    [ ( "scenario",
        [ Alcotest.test_case "table1 structure" `Quick test_scenario_table1_structure;
          Alcotest.test_case "phases" `Quick test_scenario_phases;
          Alcotest.test_case "lookup and render" `Quick test_scenario_lookup;
          Alcotest.test_case "custom packing" `Quick test_custom_large_packing
        ] );
      ( "arch",
        [ Alcotest.test_case "table2" `Quick test_arch_table2;
          Alcotest.test_case "parameters sane" `Quick test_arch_parameters_sane;
          Alcotest.test_case "rendering" `Quick test_arch_rendering
        ] );
      ( "json",
        Alcotest.test_case "escape fixed vectors" `Quick test_json_escape_fixed
        :: List.map QCheck_alcotest.to_alcotest [ prop_json_escape_roundtrip ] );
      ( "chart",
        [ Alcotest.test_case "render" `Quick test_chart_render;
          Alcotest.test_case "tsv" `Quick test_chart_tsv
        ] );
      ("sweep", [ Alcotest.test_case "structure" `Quick test_sweep_structure ]);
      ( "figures",
        [ Alcotest.test_case "fig4 contrast" `Quick test_figures_fig4_contrast ] )
    ]
