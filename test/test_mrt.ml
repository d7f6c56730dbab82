(* MRT roundtrip, format sniffing, replay, and the scenario 13/14
   drivers. *)

module Mrt = Bgp_mrt.Mrt
module Replay = Bgp_mrt.Replay
module Mrt_gen = Bgp_speaker.Mrt_gen
module Table_io = Bgp_speaker.Table_io
module Msg = Bgp_wire.Msg
module I = Bgp_route.Attrs.Interned
module Prefix = Bgp_addr.Prefix
module Ipv4 = Bgp_addr.Ipv4
module Scenario = Bgpmark.Scenario
module Harness = Bgpmark.Harness
module Damping = Bgp_rib.Damping

(* Whether a run's JSON carries the damping report. *)
let has_damping_report r =
  match Harness.result_json r with
  | Bgp_stats.Json.Obj fields -> List.mem_assoc "damping" fields
  | _ -> false

let asn = Bgp_route.Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let gen_records ?(seed = 42) ?(events = -1) ?(n = 80) () =
  Mrt_gen.records ~seed ~events ~n ~speaker_asn:(asn 65001)
    ~next_hop:(ip "192.0.2.1") ()

(* ------------------------------------------------------------------ *)
(* Record equality (for the write -> read roundtrip)                   *)
(* ------------------------------------------------------------------ *)

let peer_entry_eq a b =
  Ipv4.equal a.Mrt.pe_bgp_id b.Mrt.pe_bgp_id
  && Ipv4.equal a.Mrt.pe_addr b.Mrt.pe_addr
  && Bgp_route.Asn.equal a.Mrt.pe_asn b.Mrt.pe_asn

let source_eq a b =
  a.Mrt.src_peer = b.Mrt.src_peer
  && a.Mrt.src_time = b.Mrt.src_time
  && I.equal a.Mrt.src_attrs b.Mrt.src_attrs

let msg_eq a b =
  match a, b with
  | Msg.Update u, Msg.Update v ->
    List.for_all2 Prefix.equal u.Msg.withdrawn v.Msg.withdrawn
    && List.for_all2 Prefix.equal u.Msg.nlri v.Msg.nlri
    && (match u.Msg.attrs, v.Msg.attrs with
       | Some x, Some y -> I.equal x y
       | None, None -> true
       | _ -> false)
  | a, b -> a = b

let record_eq a b =
  match a, b with
  | Mrt.Peer_index a, Mrt.Peer_index b ->
    Ipv4.equal a.collector_id b.collector_id
    && String.equal a.view_name b.view_name
    && Array.length a.peers = Array.length b.peers
    && Array.for_all2 peer_entry_eq a.peers b.peers
  | Mrt.Rib a, Mrt.Rib b ->
    a.Mrt.seq = b.Mrt.seq
    && Prefix.equal a.Mrt.prefix b.Mrt.prefix
    && List.length a.Mrt.sources = List.length b.Mrt.sources
    && List.for_all2 source_eq a.Mrt.sources b.Mrt.sources
  | Mrt.Message a, Mrt.Message b ->
    Float.equal a.Mrt.ms_time b.Mrt.ms_time
    && Bgp_route.Asn.equal a.Mrt.ms_peer_asn b.Mrt.ms_peer_asn
    && Bgp_route.Asn.equal a.Mrt.ms_local_asn b.Mrt.ms_local_asn
    && Ipv4.equal a.Mrt.ms_peer_addr b.Mrt.ms_peer_addr
    && Ipv4.equal a.Mrt.ms_local_addr b.Mrt.ms_local_addr
    && msg_eq a.Mrt.ms_msg b.Mrt.ms_msg
  | _ -> false

let records_eq a b =
  List.length a = List.length b && List.for_all2 record_eq a b

(* ------------------------------------------------------------------ *)
(* Roundtrip                                                           *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_basic () =
  let records = gen_records () in
  match Mrt.of_string (Mrt.to_string records) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok (records', skipped) ->
    Alcotest.(check int) "nothing skipped" 0 skipped;
    Alcotest.(check bool) "records equal" true (records_eq records records')

let prop_roundtrip =
  QCheck2.Test.make ~name:"MRT write -> read roundtrip" ~count:30
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 120))
    (fun (seed, n) ->
      let records = gen_records ~seed ~n () in
      match Mrt.of_string (Mrt.to_string records) with
      | Error _ -> false
      | Ok (records', skipped) -> skipped = 0 && records_eq records records')

let test_file_roundtrip () =
  let records = gen_records ~n:50 () in
  let file = Filename.temp_file "bgpmark" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Mrt.write_file file records;
      match Mrt.read_file file with
      | Error e -> Alcotest.failf "read_file failed: %s" e
      | Ok (records', _) ->
        Alcotest.(check bool) "file roundtrip" true (records_eq records records'))

let test_truncation_rejected () =
  let s = Mrt.to_string (gen_records ~n:20 ()) in
  List.iter
    (fun cut ->
      let t = String.sub s 0 (String.length s - cut) in
      match Mrt.of_string t with
      | Ok _ -> Alcotest.failf "accepted a dump truncated by %d bytes" cut
      | Error e ->
        Alcotest.(check bool) "error names an offset" true
          (String.length e > 0))
    [ 1; 3; 7 ]

(* ------------------------------------------------------------------ *)
(* Projections                                                         *)
(* ------------------------------------------------------------------ *)

let test_projections () =
  let n = 60 in
  let records = gen_records ~n ~events:40 () in
  let routes = Mrt.routes_of_dump records in
  Alcotest.(check int) "one route per RIB entry" n (List.length routes);
  let events = Mrt.updates_of_dump records in
  Alcotest.(check int) "every message projected" 40 (List.length events);
  (match events with
  | (off, _) :: _ -> Alcotest.(check (float 0.)) "rebased to zero" 0. off
  | [] -> Alcotest.fail "no events");
  Alcotest.(check bool) "offsets non-decreasing" true
    (let rec mono = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono events);
  (* The oracle folds withdraw/announce effects over the table. *)
  let expected = Replay.expected_prefixes events (List.map fst routes) in
  Alcotest.(check bool) "oracle is a subset-or-equal of the table size" true
    (List.length expected <= n);
  Alcotest.(check bool) "oracle sorted and unique" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> Prefix.compare a b < 0 && sorted rest
       | _ -> true
     in
     sorted expected)

(* ------------------------------------------------------------------ *)
(* Sniffing and auto-detection                                         *)
(* ------------------------------------------------------------------ *)

let test_sniff () =
  let mrt = Mrt.to_string (gen_records ~n:10 ()) in
  Alcotest.(check bool) "mrt bytes" true
    (Mrt.sniff_string mrt = Mrt.Mrt_dump);
  Alcotest.(check bool) "bgpmark header" true
    (Mrt.sniff_string "# bgpmark-table v1\n" = Mrt.Bgpmark_table);
  Alcotest.(check bool) "garbage" true
    (Mrt.sniff_string "hello world, not a table" = Mrt.Unknown_format);
  Alcotest.(check bool) "empty" true
    (Mrt.sniff_string "" = Mrt.Unknown_format)

let with_temp_file content f =
  let file = Filename.temp_file "bgpmark" ".auto" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc content;
      close_out oc;
      f file)

let test_load_auto () =
  let n = 30 in
  (* MRT branch *)
  with_temp_file (Mrt.to_string (gen_records ~n ())) (fun file ->
      match Table_io.load_auto file with
      | Error e -> Alcotest.failf "MRT auto-load failed: %s" e
      | Ok entries ->
        Alcotest.(check int) "MRT entries" n (List.length entries));
  (* bgpmark text branch *)
  let entries = Table_io.synthesize ~seed:3 ~n ~speaker_asn:(asn 65001) () in
  let text =
    "# bgpmark-table v1\n"
    ^ String.concat "\n" (List.map Table_io.entry_to_line entries)
    ^ "\n"
  in
  with_temp_file text (fun file ->
      match Table_io.load_auto file with
      | Error e -> Alcotest.failf "text auto-load failed: %s" e
      | Ok entries' ->
        Alcotest.(check int) "text entries" n (List.length entries'));
  (* unknown format names both accepted formats *)
  with_temp_file "certainly not a table\n" (fun file ->
      match Table_io.load_auto file with
      | Ok _ -> Alcotest.fail "accepted garbage"
      | Error e ->
        let has needle =
          let lh = String.length needle and l = String.length e in
          let rec go i = i + lh <= l && (String.sub e i lh = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "names MRT" true (has "MRT");
        Alcotest.(check bool) "names bgpmark" true (has "bgpmark"))

(* ------------------------------------------------------------------ *)
(* Scenario 13: replay through the harness (sim)                       *)
(* ------------------------------------------------------------------ *)

let test_scenario13_sim () =
  let config =
    { Harness.default_config with table_size = 60; replay_events = 40 }
  in
  let arch = Bgp_router.Arch.xeon in
  let r = Harness.run ~config arch (Scenario.of_id_exn 13) in
  (match r.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario 13 failed verification: %s" e);
  Alcotest.(check bool) "fingerprint non-empty" true
    (String.length r.Harness.locrib_fp > 0);
  Alcotest.(check bool) "throughput positive" true (r.Harness.tps > 0.);
  (* Determinism: the same seed replays to the same Loc-RIB. *)
  let r2 = Harness.run ~config arch (Scenario.of_id_exn 13) in
  Alcotest.(check string) "deterministic fingerprint" r.Harness.locrib_fp
    r2.Harness.locrib_fp

let test_scenario13_paced () =
  let config =
    { Harness.default_config with
      table_size = 40; replay_events = 20; replay_speedup = Some 100. }
  in
  let arch = Bgp_router.Arch.xeon in
  let r = Harness.run ~config arch (Scenario.of_id_exn 13) in
  match r.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "paced replay failed verification: %s" e

(* A dump written to disk replays exactly like the same dump
   synthesized in memory. *)
let test_scenario13_from_file () =
  let config =
    { Harness.default_config with table_size = 300; replay_events = 100 }
  in
  let file = Filename.temp_file "bgpmark-dump" ".mrt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Mrt.write_file file (gen_records ~n:300 ~events:100 ());
  let arch = Bgp_router.Arch.xeon in
  let sc = Scenario.of_id_exn 13 in
  let mem = Harness.run ~config arch sc in
  let disk =
    Harness.run ~config:{ config with table_file = Some file } arch sc
  in
  Alcotest.(check bool) "both verified" true
    (mem.Harness.verified = Ok () && disk.Harness.verified = Ok ());
  Alcotest.(check string) "same fingerprint" mem.Harness.locrib_fp
    disk.Harness.locrib_fp;
  Alcotest.(check (float 0.0)) "same tps" mem.Harness.tps disk.Harness.tps

(* Scenario 13 honors [config.damping]: the replay's re-announcements
   of recently withdrawn prefixes get suppressed, and the run still
   verifies (reuse re-injections only add transactions). *)
let test_scenario13_damping () =
  let config =
    { Harness.default_config with
      table_size = 300; replay_events = 300;
      damping = Some Bgp_rib.Damping.test_config }
  in
  let r = Harness.run ~config Bgp_router.Arch.xeon (Scenario.of_id_exn 13) in
  (match r.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "damped replay failed verification: %s" e);
  if not (has_damping_report r) then Alcotest.fail "no damping report";
  Alcotest.(check bool) "routes were suppressed" true
    (Damping.suppressions_in r.Harness.metrics > 0)

(* ------------------------------------------------------------------ *)
(* Scenario 14: flap storm under damping (sim)                         *)
(* ------------------------------------------------------------------ *)

let test_scenario14_sim () =
  let config =
    { Harness.default_config with table_size = 40; fault_rounds = 3 }
  in
  let arch = Bgp_router.Arch.xeon in
  let r = Harness.run ~config arch (Scenario.of_id_exn 14) in
  (match r.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario 14 failed verification: %s" e);
  if not (has_damping_report r) then Alcotest.fail "no damping report";
  let m = r.Harness.metrics in
  let _, _, reuse_latency_max = Damping.reuse_latency_in m in
  Alcotest.(check bool) "routes were suppressed" true
    (Damping.suppressions_in m > 0);
  Alcotest.(check int) "all suppressed routes reused"
    (Damping.suppressions_in m) (Damping.reuses_in m);
  Alcotest.(check int) "nothing left suppressed" 0 (Damping.suppressed_in m);
  Alcotest.(check bool) "reuse latency observed" true
    (reuse_latency_max > 0.)

(* Damping off must not change the paper-faithful path at all. *)
let test_damping_off_identical () =
  let arch = Bgp_router.Arch.xeon in
  let config = { Harness.default_config with table_size = 300 } in
  let sc = Scenario.of_id_exn 10 in
  let plain = Harness.run ~config arch sc in
  let damped =
    Harness.run
      ~config:{ config with damping = Some Bgp_rib.Damping.test_config }
      arch sc
  in
  (match plain.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "undamped scenario 10 failed: %s" e);
  (match damped.Harness.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "damped scenario 10 failed: %s" e);
  Alcotest.(check string) "same final Loc-RIB" plain.Harness.locrib_fp
    damped.Harness.locrib_fp;
  Alcotest.(check bool) "undamped run has no damping report" true
    (not (has_damping_report plain))

let qtests tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  ignore pfx;
  Alcotest.run "bgp_mrt"
    [ ( "roundtrip",
        Alcotest.test_case "basic" `Quick test_roundtrip_basic
        :: Alcotest.test_case "file" `Quick test_file_roundtrip
        :: Alcotest.test_case "truncation rejected" `Quick
             test_truncation_rejected
        :: qtests [ prop_roundtrip ] );
      ( "projections",
        [ Alcotest.test_case "routes and events" `Quick test_projections ] );
      ( "sniffing",
        [ Alcotest.test_case "sniff" `Quick test_sniff;
          Alcotest.test_case "load_auto" `Quick test_load_auto ] );
      ( "scenarios",
        [ Alcotest.test_case "13 replay sim" `Quick test_scenario13_sim;
          Alcotest.test_case "13 paced" `Quick test_scenario13_paced;
          Alcotest.test_case "14 damping sim" `Quick test_scenario14_sim;
          Alcotest.test_case "damping ablation" `Quick
            test_damping_off_identical;
          Alcotest.test_case "13 from a dump file" `Quick test_scenario13_from_file;
          Alcotest.test_case "13 honors damping" `Quick test_scenario13_damping
        ] ) ]
