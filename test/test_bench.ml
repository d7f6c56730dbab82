(* Integration tests: router + speakers + harness, at reduced scale.
   These assert the semantic correctness of full benchmark runs and the
   paper's qualitative shapes (DESIGN.md section 5). *)

module H = Bgpmark.Harness
module Scenario = Bgpmark.Scenario
module Arch = Bgp_router.Arch
module Clock = Bgp_engine.Clock

let small_config = { H.default_config with H.table_size = 400 }

let run ?(config = small_config) arch id =
  H.run ~config arch (Scenario.of_id_exn id)

let check_verified r =
  match r.H.verified with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s scenario %d failed verification: %s" r.H.arch_name
      r.H.scenario.Scenario.id e

(* ------------------------------------------------------------------ *)
(* Correctness of full runs                                            *)
(* ------------------------------------------------------------------ *)

let test_all_scenarios_verify_pentium3 () =
  List.iter
    (fun sc ->
      let r = H.run ~config:small_config Arch.pentium3 sc in
      check_verified r;
      Alcotest.(check int)
        (Printf.sprintf "scenario %d counts all prefixes" sc.Scenario.id)
        400 r.H.measured_prefixes;
      Alcotest.(check bool) "positive tps" true (r.H.tps > 0.0))
    Scenario.all

let test_all_archs_scenario1_verify () =
  List.iter
    (fun arch ->
      let r = H.run ~config:small_config arch (Scenario.of_id_exn 1) in
      check_verified r;
      Alcotest.(check int) "fib holds table" 400 r.H.fib_size_end)
    Arch.all

let test_deterministic () =
  let a = run Arch.pentium3 5 in
  let b = run Arch.pentium3 5 in
  Alcotest.(check (float 1e-9)) "same tps" a.H.tps b.H.tps;
  Alcotest.(check (float 1e-9)) "same duration" a.H.measure_seconds
    b.H.measure_seconds

let test_seed_changes_table_not_shape () =
  let c1 = { small_config with H.seed = 1 } in
  let c2 = { small_config with H.seed = 2 } in
  let a = H.run ~config:c1 Arch.pentium3 (Scenario.of_id_exn 1) in
  let b = H.run ~config:c2 Arch.pentium3 (Scenario.of_id_exn 1) in
  check_verified a;
  check_verified b;
  (* different tables, same workload shape: within 10% *)
  Alcotest.(check bool) "tps stable across seeds" true
    (Float.abs (a.H.tps -. b.H.tps) /. a.H.tps < 0.1)

(* ------------------------------------------------------------------ *)
(* Paper shape criteria                                                *)
(* ------------------------------------------------------------------ *)

let test_packet_size_speedup () =
  let s1 = run Arch.pentium3 1 and s2 = run Arch.pentium3 2 in
  Alcotest.(check bool) "large packets faster (startup)" true
    (s2.H.tps > 1.3 *. s1.H.tps);
  let s5 = run Arch.pentium3 5 and s6 = run Arch.pentium3 6 in
  Alcotest.(check bool) "large packets faster (incremental)" true
    (s6.H.tps > 1.3 *. s5.H.tps)

let test_no_fib_change_fastest () =
  let tps id = (run Arch.pentium3 id).H.tps in
  let s5 = tps 5 in
  List.iter
    (fun id ->
      if tps id >= s5 then
        Alcotest.failf "scenario %d should be slower than scenario 5" id)
    [ 1; 3; 7 ]

let test_scenario7_8_close () =
  let s7 = run Arch.pentium3 7 and s8 = run Arch.pentium3 8 in
  let hi = Float.max s7.H.tps s8.H.tps and lo = Float.min s7.H.tps s8.H.tps in
  Alcotest.(check bool) "within 2x" true (hi <= 2.0 *. lo)

let test_architecture_ordering () =
  List.iter
    (fun id ->
      let xeon = (run Arch.xeon id).H.tps in
      let p3 = (run Arch.pentium3 id).H.tps in
      let ixp = (run Arch.ixp2400 id).H.tps in
      if not (xeon > 3.0 *. p3 && p3 > 3.0 *. ixp) then
        Alcotest.failf "ordering violated on scenario %d: %.1f / %.1f / %.1f" id
          xeon p3 ixp)
    [ 1; 5; 7 ]

let test_commercial_shape () =
  (* Cisco: ~10.7 tps on small packets regardless of scenario; beats
     the Xeon on scenario 8. *)
  List.iter
    (fun id ->
      let r = run Arch.cisco3620 id in
      if Float.abs (r.H.tps -. 10.7) > 1.0 then
        Alcotest.failf "cisco small-packet tps %f (scenario %d)" r.H.tps id)
    [ 1; 3; 5; 7 ];
  let cisco8 = (run Arch.cisco3620 8).H.tps in
  let xeon8 = (run Arch.xeon 8).H.tps in
  Alcotest.(check bool) "cisco wins scenario 8" true (cisco8 > xeon8)

(* ------------------------------------------------------------------ *)
(* Cross-traffic                                                       *)
(* ------------------------------------------------------------------ *)

let with_cross mbps = { small_config with H.cross_traffic = mbps }

let test_cross_traffic_degrades_shared () =
  let base = run Arch.pentium3 1 in
  let loaded = H.run ~config:(with_cross 250.0) Arch.pentium3 (Scenario.of_id_exn 1) in
  check_verified loaded;
  Alcotest.(check bool) "pentium3 degrades" true
    (loaded.H.tps < 0.75 *. base.H.tps)

let test_cross_traffic_spares_dedicated () =
  let base = run Arch.ixp2400 5 in
  let loaded = H.run ~config:(with_cross 900.0) Arch.ixp2400 (Scenario.of_id_exn 5) in
  check_verified loaded;
  Alcotest.(check bool) "ixp2400 unaffected" true
    (Float.abs (loaded.H.tps -. base.H.tps) /. base.H.tps < 0.02)

let test_cross_traffic_cisco_contrast () =
  (* Small packets: negligible change. Large packets: drastic drop. *)
  let s1_base = run Arch.cisco3620 1 in
  let s1_load = H.run ~config:(with_cross 78.0) Arch.cisco3620 (Scenario.of_id_exn 1) in
  Alcotest.(check bool) "small barely moves" true
    (s1_load.H.tps > 0.9 *. s1_base.H.tps);
  let s8_base = run Arch.cisco3620 8 in
  let s8_load = H.run ~config:(with_cross 78.0) Arch.cisco3620 (Scenario.of_id_exn 8) in
  Alcotest.(check bool) "large drops drastically" true
    (s8_load.H.tps < 0.25 *. s8_base.H.tps)

let test_forwarding_dip_under_bgp_load () =
  (* Fig 6(c): during scenario 8 with 300 Mbps cross-traffic on the
     uni-core router, forwarding loses some throughput. *)
  let config =
    { (with_cross 300.0) with H.trace_interval = Some 0.5; table_size = 800 }
  in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 8) in
  check_verified r;
  Alcotest.(check bool) "trace recorded" true (List.length r.H.trace > 3);
  Alcotest.(check bool) "forwarding dipped" true (r.H.fwd_ratio_min < 0.98);
  Alcotest.(check bool) "but did not collapse" true (r.H.fwd_ratio_min > 0.5)

let test_interrupt_share_at_300mbps () =
  (* Fig 6(b): ~20-30% of the Pentium III is interrupt processing at
     300 Mbps. *)
  let config =
    { (with_cross 300.0) with H.trace_interval = Some 0.5; table_size = 800 }
  in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 8) in
  let busy_samples =
    List.filter (fun s -> s.Bgp_sim.Trace.s_interrupt > 1.0) r.H.trace
  in
  Alcotest.(check bool) "has samples" true (busy_samples <> []);
  List.iter
    (fun s ->
      let irq = s.Bgp_sim.Trace.s_interrupt in
      if irq < 20.0 || irq > 40.0 then
        Alcotest.failf "interrupt share %.1f%% outside 20-40%%" irq)
    busy_samples

(* ------------------------------------------------------------------ *)
(* Traces (figures 3/4)                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_shows_xorp_processes () =
  let config = { small_config with H.trace_interval = Some 0.25 } in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 6) in
  match r.H.trace with
  | [] -> Alcotest.fail "no trace"
  | s :: _ ->
    let names = List.map fst s.Bgp_sim.Trace.s_procs in
    List.iter
      (fun n ->
        if not (List.mem n names) then Alcotest.failf "missing process %s" n)
      [ "xorp_bgp"; "xorp_policy"; "xorp_rib"; "xorp_fea"; "xorp_rtrmgr" ]

let test_xeon_pipelines_above_one_core () =
  (* Fig 3(b): on the dual-core system the aggregate process load
     exceeds 100% of one core — the pipeline really runs in parallel. *)
  let config =
    { small_config with H.table_size = 3000; trace_interval = Some 0.25 }
  in
  let r = H.run ~config Arch.xeon (Scenario.of_id_exn 1) in
  let peak =
    List.fold_left
      (fun acc s -> Float.max acc (Bgp_sim.Trace.total_user_percent s))
      0.0 r.H.trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak aggregate load %.0f%% > 100%%" peak)
    true (peak > 100.0);
  (* ...while the uni-core can never exceed its single core *)
  let r3 = H.run ~config Arch.pentium3 (Scenario.of_id_exn 1) in
  List.iter
    (fun s ->
      let total =
        Bgp_sim.Trace.total_user_percent s +. s.Bgp_sim.Trace.s_interrupt
        +. s.Bgp_sim.Trace.s_forwarding
      in
      if total > 101.0 then
        Alcotest.failf "uni-core exceeded one core: %.1f%%" total)
    r3.H.trace

let test_rtrmgr_heavy_on_ixp () =
  (* Fig 3(c): the router manager is a considerable share on the
     XScale, hardly visible on the Pentium III. *)
  let config = { small_config with H.trace_interval = Some 1.0 } in
  let avg_rtrmgr arch =
    let r = H.run ~config arch (Scenario.of_id_exn 6) in
    let samples = r.H.trace in
    let total, n =
      List.fold_left
        (fun (acc, n) s ->
          ( acc +. Option.value ~default:0.0
                     (List.assoc_opt "xorp_rtrmgr" s.Bgp_sim.Trace.s_procs),
            n + 1 ))
        (0.0, 0) samples
    in
    if n = 0 then 0.0 else total /. float_of_int n
  in
  let ixp = avg_rtrmgr Arch.ixp2400 and p3 = avg_rtrmgr Arch.pentium3 in
  Alcotest.(check bool) "considerable on XScale" true (ixp > 10.0);
  Alcotest.(check bool) "hardly visible on Pentium III" true (p3 < 3.0)

(* ------------------------------------------------------------------ *)
(* Varied-path (Internet-shaped) workload ablation                      *)
(* ------------------------------------------------------------------ *)

let test_varied_paths_verify () =
  let config = { small_config with H.varied_paths = true } in
  List.iter
    (fun id ->
      let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn id) in
      check_verified r)
    [ 1; 3; 5; 7 ]

let test_varied_paths_shape_stable () =
  (* The workload realism knob must not change who wins or the broad
     magnitudes (within 40%). *)
  let uniform = (run Arch.pentium3 1).H.tps in
  let varied =
    (H.run
       ~config:{ small_config with H.varied_paths = true }
       Arch.pentium3 (Scenario.of_id_exn 1))
      .H.tps
  in
  Alcotest.(check bool) "within 40%" true
    (Float.abs (uniform -. varied) /. uniform < 0.4)

(* A table file holding exactly the varied synthetic table must drive
   the same Phase-1 injection as [varied_paths], and so the same run. *)
let test_table_file_matches_varied () =
  let file = Filename.temp_file "bgpmark-table" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Bgp_speaker.Table_io.save file
    (Bgp_speaker.Table_io.synthesize ~seed:42 ~n:500
       ~speaker_asn:(Bgp_route.Asn.of_int 65001) ());
  let config = { H.default_config with H.table_size = 500; seed = 42 } in
  List.iter
    (fun id ->
      let sc = Scenario.of_id_exn id in
      let varied =
        H.run ~config:{ config with H.varied_paths = true } Arch.xeon sc
      in
      let from_file =
        H.run ~config:{ config with H.table_file = Some file } Arch.xeon sc
      in
      check_verified varied;
      check_verified from_file;
      Alcotest.(check string)
        (Printf.sprintf "scenario %d fingerprint" id)
        varied.H.locrib_fp from_file.H.locrib_fp;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "scenario %d tps" id)
        varied.H.tps from_file.H.tps)
    [ 2; 4; 5; 6; 8 ]

(* Speaker 2's losing challenger (scenarios 5/6) must outgrow the
   longest path in a loaded table, here 7 and 8 hops. *)
let test_table_file_long_paths () =
  let file = Filename.temp_file "bgpmark-table" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let asn = Bgp_route.Asn.of_int 65001 in
  Bgp_speaker.Table_io.save file
    (List.mapi
       (fun i e ->
         { e with
           Bgp_speaker.Table_io.e_path =
             Bgp_speaker.Workload.path ~origin_asn:asn ~len:(7 + (i mod 2)) })
       (Bgp_speaker.Table_io.synthesize ~seed:42 ~n:300 ~speaker_asn:asn ()));
  let config = { H.default_config with H.table_file = Some file } in
  List.iter
    (fun id -> check_verified (H.run ~config Arch.xeon (Scenario.of_id_exn id)))
    [ 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Peering-density extension + prefix-limit protection                  *)
(* ------------------------------------------------------------------ *)

let test_peers_sweep_monotone () =
  let sweep =
    Bgpmark.Peers_sweep.run ~table_size:300 ~counts:[ 2; 8 ] Arch.pentium3
  in
  match sweep.Bgpmark.Peers_sweep.points with
  | [ two; eight ] ->
    Alcotest.(check bool) "tps positive" true (two.Bgpmark.Peers_sweep.tps > 0.0);
    Alcotest.(check bool) "more peers is slower" true
      (eight.Bgpmark.Peers_sweep.tps < two.Bgpmark.Peers_sweep.tps)
  | _ -> Alcotest.fail "two points expected"

(* ------------------------------------------------------------------ *)
(* Runs that would measure nothing                                     *)
(* ------------------------------------------------------------------ *)

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted a run that measures nothing" what
  | exception Invalid_argument _ -> ()

(* Regression: a zero-prefix table ran to "verification OK" at 0
   transactions/s. *)
let test_empty_table_rejected () =
  List.iter
    (fun (id, n) ->
      rejects (Printf.sprintf "scenario %d, %d prefixes" id n) (fun () ->
          run ~config:{ small_config with H.table_size = n } Arch.xeon id))
    [ (1, 0); (6, 0); (8, -1) ]

let test_empty_table_file_rejected () =
  let file = Filename.temp_file "bgpmark-table" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Bgp_speaker.Table_io.save file [];
  rejects "header-only table file" (fun () ->
      run ~config:{ small_config with H.table_file = Some file } Arch.xeon 2)

let test_peers_sweep_empty_table_rejected () =
  rejects "peers sweep, 0 prefixes" (fun () ->
      Bgpmark.Peers_sweep.run ~table_size:0 ~counts:[ 2 ] Arch.xeon)

let test_max_prefixes_ceases_session () =
  let module Engine = Bgp_engine.Engine in
  let module Channel = Bgp_netsim.Channel in
  let module Router = Bgp_router.Router in
  let module Speaker = Bgp_speaker.Speaker in
  let ip = Bgp_addr.Ipv4.of_string_exn in
  let asn = Bgp_route.Asn.of_int in
  let engine = Engine.create () in
  let clock = Clock.of_engine engine in
  let router =
    Router.create clock Arch.xeon ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let ch = Channel.create engine () in
  let peer =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~addr:(ip "192.0.2.1")
  in
  Router.attach_peer ~max_prefixes:100 router ~peer
    ~link:(Channel.endpoint ch Channel.B);
  let s =
    Speaker.create clock ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~link:(Channel.endpoint ch Channel.A)
  in
  Speaker.start s;
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "established" true (Speaker.established s);
  (* Within the limit: fine. *)
  let table = Bgp_addr.Prefix_gen.table ~seed:2 ~n:150 () in
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ~path_len:3 ()
  in
  ignore (Speaker.announce s ~packing:50 ~attrs (Array.sub table 0 100));
  Engine.run ~until:30.0 engine;
  Alcotest.(check int) "100 accepted" 100
    (Bgp_rib.Loc_rib.size (Bgp_rib.Rib_manager.loc_rib (Router.rib router)));
  Alcotest.(check string) "still up" "Established"
    (Bgp_fsm.Fsm.state_name (Router.session_state router peer));
  (* The 101st prefix crosses the limit: CEASE + flush. *)
  ignore (Speaker.announce s ~packing:50 ~attrs (Array.sub table 100 50));
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "session torn down" true
    (Router.session_state router peer <> Bgp_fsm.Fsm.Established);
  Alcotest.(check int) "routes flushed" 0
    (Bgp_rib.Loc_rib.size (Bgp_rib.Rib_manager.loc_rib (Router.rib router)))

(* ------------------------------------------------------------------ *)
(* Live rig teardown                                                    *)
(* ------------------------------------------------------------------ *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A live run that gives up must still close its sockets: a zero
   timeout fails the first wait, after the rig is built. *)
let test_live_timeout_releases_sockets () =
  let config = { small_config with H.mode = H.Live; timeout = 0.0 } in
  let before = open_fds () in
  for _ = 1 to 5 do
    match H.run ~config Arch.xeon (Scenario.of_id_exn 7) with
    | _ -> Alcotest.fail "a zero timeout must fail the run"
    | exception Failure _ -> ()
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ())

(* ------------------------------------------------------------------ *)
(* MRAI ablation                                                        *)
(* ------------------------------------------------------------------ *)

let test_mrai_batches_advertisements () =
  (* Scenario 7 (small packets) makes the router advertise per prefix:
     2 outbound UPDATEs per transaction without MRAI.  With a 1 s MRAI
     the outbound message count collapses while the measured
     transaction processing is unchanged. *)
  let without = run Arch.xeon 7 in
  check_verified without;
  let with_mrai =
    H.run
      ~config:{ small_config with H.mrai = Some 1.0 }
      Arch.xeon (Scenario.of_id_exn 7)
  in
  check_verified with_mrai;
  Alcotest.(check int) "same transactions" without.H.measured_prefixes
    with_mrai.H.measured_prefixes;
  (* compare wire messages: without MRAI ~2 per prefix; with it, far
     fewer (batched flushes) *)
  Alcotest.(check bool)
    (Printf.sprintf "fewer wire messages (%d vs %d)" with_mrai.H.msgs_tx
       without.H.msgs_tx)
    true
    (with_mrai.H.msgs_tx * 4 < without.H.msgs_tx)

(* ------------------------------------------------------------------ *)
(* UPDATEs fit in 4096 bytes                                           *)
(* ------------------------------------------------------------------ *)

module Testbed = Bgpmark.Testbed
module Speaker = Bgp_speaker.Speaker

let slash24s n =
  Array.init n (fun i ->
      Bgp_addr.Prefix.make (Bgp_addr.Ipv4.of_int ((10 lsl 24) lor (i lsl 8))) 24)

(* The speaker's workload attributes padded with [communities] distinct
   communities (4 bytes each on the wire). *)
let padded_attrs side ~path_len ~communities =
  { (Testbed.attrs side ~path_len) with
    Bgp_route.Attrs.communities =
      List.init communities (fun i -> Bgp_route.Community.of_int32_value (i + 1))
  }

(* Speaker 1 watches speaker 0's routes arrive through the router. *)
let with_oversize_rig ?mrai script =
  Testbed.with_rig ?mrai Testbed.Sim ~timeout:600.0 ~speakers:2 Arch.xeon
    (fun tb -> script tb tb.Testbed.sides.(0) tb.Testbed.sides.(1))

let received side = Hashtbl.length (Speaker.received_prefix_set side.Testbed.speaker)

(* With MRAI on, the timer collects 2000 /24s under one attribute set:
   one UPDATE would need ~8 KB, so the flush must split the group. *)
let test_mrai_flush_splits_by_size () =
  with_oversize_rig ~mrai:1.0 (fun tb s0 s1 ->
      Testbed.establish tb [ s0; s1 ];
      ignore
        (Speaker.announce s0.Testbed.speaker ~packing:500
           ~attrs:(Testbed.attrs s0 ~path_len:2) (slash24s 2000));
      Testbed.wait tb ~what:"speaker 1 learns the table" (fun () ->
          received s1 = 2000);
      Alcotest.(check bool) "several UPDATEs" true
        (Speaker.updates_received s1.Testbed.speaker >= 3);
      Alcotest.(check bool) "still established" true
        (Speaker.established s1.Testbed.speaker))

(* Each route's UPDATE alone is ~3.4 KB, so the full-table sync to a late
   speaker cannot put 200 of them in one message. *)
let test_full_table_sync_splits_by_size () =
  with_oversize_rig (fun tb s0 s1 ->
      Testbed.establish tb [ s0 ];
      ignore
        (Speaker.announce s0.Testbed.speaker ~packing:1
           ~attrs:(padded_attrs s0 ~path_len:1 ~communities:850) (slash24s 300));
      Testbed.wait tb ~what:"router learns the table" (Testbed.router_done tb 300);
      Testbed.establish tb [ s1 ];
      Testbed.wait tb ~what:"speaker 1 learns the table" (fun () ->
          received s1 = 300);
      Alcotest.(check int) "two size-bound UPDATEs" 2
        (Speaker.updates_received s1.Testbed.speaker))

(* A legal 4095-byte UPDATE grows past 4096 when the eBGP re-export
   prepends the local AS: the route goes to speaker 1 as a withdrawal. *)
let test_unfit_route_goes_as_withdrawal () =
  with_oversize_rig (fun tb s0 s1 ->
      Testbed.establish tb [ s0; s1 ];
      let attrs = padded_attrs s0 ~path_len:2 ~communities:1011 in
      let p = (slash24s 1).(0) in
      Alcotest.(check int) "a maximum-size UPDATE" 4095
        (Bgp_wire.Codec.encoded_size (Bgp_wire.Msg.announcement attrs [ p ]));
      ignore (Speaker.announce s0.Testbed.speaker ~packing:1 ~attrs [| p |]);
      Testbed.wait tb ~what:"speaker 1 hears of the route" (fun () ->
          Speaker.withdrawals_received s1.Testbed.speaker = 1);
      Alcotest.(check int) "router installed it" 1
        (Bgp_fib.Fib.size (Bgp_router.Router.fib tb.Testbed.router));
      Alcotest.(check int) "speaker 1 holds nothing" 0 (received s1);
      Alcotest.(check bool) "still established" true
        (Speaker.established s1.Testbed.speaker))

(* Sizes of every message [side]'s speaker puts on the wire. *)
let sent_sizes side =
  let sizes = ref [] in
  Bgp_engine.Link.tap side.Testbed.sp_end (fun wire ->
      sizes := String.length wire :: !sizes;
      Bgp_engine.Link.Pass);
  sizes

(* --packing 1100 asks for ~4.4 KB UPDATEs: the speaker must split them
   to fit, where it used to die in Codec.encode. *)
let test_oversize_packing_splits () =
  let config =
    { H.default_config with H.table_size = 2000; large_packing = 1100 }
  in
  let r = run ~config Arch.pentium3 2 in
  check_verified r;
  Alcotest.(check int) "FIB holds the table" 2000 r.H.fib_size_end;
  Testbed.with_rig Testbed.Sim ~timeout:600.0 ~speakers:1 Arch.pentium3
    (fun tb ->
      let s1 = tb.Testbed.sides.(0) in
      Testbed.establish tb [ s1 ];
      let sizes = sent_sizes s1 in
      ignore
        (Speaker.announce s1.Testbed.speaker ~packing:1100
           ~attrs:(Testbed.attrs s1 ~path_len:3)
           (Bgp_addr.Prefix_gen.table ~seed:42 ~n:2000 ()));
      Testbed.wait tb ~what:"router learns the table" (Testbed.router_done tb 2000);
      Alcotest.(check bool) "several UPDATEs" true (List.length !sizes >= 2);
      List.iter
        (fun n ->
          if n > Bgp_wire.Msg.max_len then Alcotest.failf "a %d-byte message" n)
        !sizes)

(* ------------------------------------------------------------------ *)
(* Route refresh end to end                                            *)
(* ------------------------------------------------------------------ *)

let test_route_refresh_end_to_end () =
  (* Run scenario 5 setup (both speakers up, table synced), then have
     speaker 2 request a refresh and check it receives the table again
     through the simulated CPU pipeline. *)
  let module Engine = Bgp_engine.Engine in
  let module Channel = Bgp_netsim.Channel in
  let module Router = Bgp_router.Router in
  let module Speaker = Bgp_speaker.Speaker in
  let ip = Bgp_addr.Ipv4.of_string_exn in
  let asn = Bgp_route.Asn.of_int in
  let engine = Engine.create () in
  let clock = Clock.of_engine engine in
  let router =
    Router.create clock Arch.xeon ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let ch1 = Channel.create engine () and ch2 = Channel.create engine () in
  let p1 =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~addr:(ip "192.0.2.1")
  in
  let p2 =
    Bgp_route.Peer.make ~id:1 ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
      ~addr:(ip "192.0.2.2")
  in
  Router.attach_peer router ~peer:p1 ~link:(Channel.endpoint ch1 Channel.B);
  Router.attach_peer router ~peer:p2 ~link:(Channel.endpoint ch2 Channel.B);
  let s1 =
    Speaker.create clock ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~link:(Channel.endpoint ch1 Channel.A)
  in
  let s2 =
    Speaker.create clock ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
      ~link:(Channel.endpoint ch2 Channel.A)
  in
  Speaker.start s1;
  Engine.run ~until:1.0 engine;
  let table = Bgp_addr.Prefix_gen.table ~seed:4 ~n:100 () in
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ~path_len:3 ()
  in
  ignore (Speaker.announce s1 ~packing:100 ~attrs table);
  Engine.run ~until:30.0 engine;
  Speaker.start s2;
  Engine.run ~until:60.0 engine;
  Alcotest.(check int) "phase 2 table" 100
    (Hashtbl.length (Speaker.received_prefix_set s2));
  let before = Speaker.prefixes_received s2 in
  Speaker.request_refresh s2;
  Engine.run ~until:120.0 engine;
  Alcotest.(check int) "refresh resends the table" (before + 100)
    (Speaker.prefixes_received s2);
  Alcotest.(check int) "still consistent" 100
    (Hashtbl.length (Speaker.received_prefix_set s2))

(* ------------------------------------------------------------------ *)
(* Table3 module                                                       *)
(* ------------------------------------------------------------------ *)

let test_table3_module () =
  let t =
    Bgpmark.Table3.run ~config:small_config
      ~archs:[ Arch.pentium3; Arch.cisco3620 ]
      ~scenarios:[ Scenario.of_id_exn 1; Scenario.of_id_exn 2 ]
      ()
  in
  (match Bgpmark.Table3.result t ~scenario:1 ~arch:"pentium3" with
  | Some r -> check_verified r
  | None -> Alcotest.fail "missing cell");
  Alcotest.(check (option (float 0.01))) "paper lookup" (Some 2105.3)
    (Bgpmark.Table3.paper_value ~scenario:1 ~arch:"xeon");
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  let rendered = Bgpmark.Table3.render t in
  Alcotest.(check bool) "render mentions scenario" true
    (contains rendered "Scenario 1")

let () =
  Alcotest.run "bgpmark integration"
    [ ( "correctness",
        [ Alcotest.test_case "all scenarios verify (pentium3)" `Slow
            test_all_scenarios_verify_pentium3;
          Alcotest.test_case "scenario 1 verifies on all systems" `Slow
            test_all_archs_scenario1_verify;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed-insensitive shape" `Quick
            test_seed_changes_table_not_shape
        ] );
      ( "paper shapes",
        [ Alcotest.test_case "packet size speedup" `Quick test_packet_size_speedup;
          Alcotest.test_case "no-FIB-change fastest" `Quick test_no_fib_change_fastest;
          Alcotest.test_case "scenario 7 ~ 8" `Quick test_scenario7_8_close;
          Alcotest.test_case "xeon > p3 > ixp" `Slow test_architecture_ordering;
          Alcotest.test_case "commercial black box" `Slow test_commercial_shape
        ] );
      ( "cross traffic",
        [ Alcotest.test_case "shared CPU degrades" `Quick
            test_cross_traffic_degrades_shared;
          Alcotest.test_case "dedicated unaffected" `Quick
            test_cross_traffic_spares_dedicated;
          Alcotest.test_case "cisco contrast" `Slow test_cross_traffic_cisco_contrast;
          Alcotest.test_case "forwarding dip (fig 6c)" `Quick
            test_forwarding_dip_under_bgp_load;
          Alcotest.test_case "interrupt share (fig 6b)" `Quick
            test_interrupt_share_at_300mbps
        ] );
      ( "traces",
        [ Alcotest.test_case "xorp processes visible" `Quick
            test_trace_shows_xorp_processes;
          Alcotest.test_case "xeon pipelines above one core" `Quick
            test_xeon_pipelines_above_one_core;
          Alcotest.test_case "rtrmgr heavy on ixp" `Slow test_rtrmgr_heavy_on_ixp
        ] );
      ( "extensions",
        [ Alcotest.test_case "peering density monotone" `Quick
            test_peers_sweep_monotone;
          Alcotest.test_case "prefix limit ceases session" `Quick
            test_max_prefixes_ceases_session
        ] );
      ( "empty runs",
        [ Alcotest.test_case "empty table rejected" `Quick
            test_empty_table_rejected;
          Alcotest.test_case "empty table file rejected" `Quick
            test_empty_table_file_rejected;
          Alcotest.test_case "peers sweep rejects an empty table" `Quick
            test_peers_sweep_empty_table_rejected
        ] );
      ( "live rig",
        [ Alcotest.test_case "timeout releases sockets" `Quick
            test_live_timeout_releases_sockets ] );
      ( "mrai",
        [ Alcotest.test_case "batches advertisements" `Quick
            test_mrai_batches_advertisements ] );
      ( "varied paths",
        [ Alcotest.test_case "verifies" `Quick test_varied_paths_verify;
          Alcotest.test_case "shape stable" `Quick test_varied_paths_shape_stable;
          Alcotest.test_case "table file equals varied paths" `Quick
            test_table_file_matches_varied;
          Alcotest.test_case "table file with 8-hop paths" `Quick
            test_table_file_long_paths
        ] );
      ( "update size",
        [ Alcotest.test_case "MRAI flush splits by size" `Quick
            test_mrai_flush_splits_by_size;
          Alcotest.test_case "full-table sync splits by size" `Quick
            test_full_table_sync_splits_by_size;
          Alcotest.test_case "unfit route goes as a withdrawal" `Quick
            test_unfit_route_goes_as_withdrawal;
          Alcotest.test_case "speaker splits oversize packing" `Quick
            test_oversize_packing_splits ] );
      ( "route refresh",
        [ Alcotest.test_case "end to end" `Quick test_route_refresh_end_to_end ] );
      ( "table3",
        [ Alcotest.test_case "module" `Slow test_table3_module ] )
    ]
