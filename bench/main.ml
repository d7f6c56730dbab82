(* Bechamel benchmarks for the bgpmark reproduction.

   One Test.make per paper artifact — Table I/II rendering, each
   Table III scenario, and each figure — each benchmark running a
   scaled-down but complete harness experiment; plus microbenchmarks of
   the substrate hot paths (wire codec, LPM structures, decision
   process, policy) and the DESIGN.md ablations (LPM structure choice,
   policy chain depth, packet packing).

   Wall-clock numbers here measure the *simulator and protocol
   engine*'s OCaml performance; the paper-facing transactions/s numbers
   come from `bgpbench` (virtual time). *)

open Bechamel
open Toolkit

module H = Bgpmark.Harness
module Testbed = Bgpmark.Testbed
module Scenario = Bgpmark.Scenario
module Faults = Bgp_faults.Faults
module Damping = Bgp_rib.Damping
module Arch = Bgp_router.Arch
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int

(* Small-but-complete runs keep each benchmark iteration in the
   low-millisecond range. *)
let bench_config = { H.default_config with H.table_size = 200 }

(* ------------------------------------------------------------------ *)
(* Per-table / per-figure harness benches                              *)
(* ------------------------------------------------------------------ *)

let table1_test =
  Test.make ~name:"table1/render" (Staged.stage @@ fun () -> Scenario.table1 ())

let table2_test =
  Test.make ~name:"table2/render"
    (Staged.stage @@ fun () ->
     List.map (fun a -> Format.asprintf "%a" Arch.pp a) Arch.all)

let table3_tests =
  List.map
    (fun sc ->
      Test.make ~name:(Printf.sprintf "table3/scenario%d" sc.Scenario.id)
        (Staged.stage @@ fun () ->
         List.map
           (fun arch ->
             let r = H.run ~config:bench_config arch sc in
             assert (r.H.verified = Ok ());
             r.H.tps)
           Arch.all))
    Scenario.all

let fig3_test =
  Test.make ~name:"fig3/cpu-traces-scenario6"
    (Staged.stage @@ fun () -> Bgpmark.Figures.fig3 ~config:bench_config ())

let fig4_test =
  Test.make ~name:"fig4/packet-size-traces"
    (Staged.stage @@ fun () -> Bgpmark.Figures.fig4 ~config:bench_config ())

let fig5_tests =
  (* One per panel, on a reduced 3-level sweep. *)
  List.map
    (fun sc ->
      Test.make ~name:(Printf.sprintf "fig5/benchmark%d" sc.Scenario.id)
        (Staged.stage @@ fun () ->
         Bgpmark.Sweep.run ~config:bench_config ~levels:[ 0.0; 150.0; 300.0 ] sc))
    Scenario.all

let fig6_test =
  Test.make ~name:"fig6/cross-traffic-traces"
    (Staged.stage @@ fun () -> Bgpmark.Figures.fig6 ~config:bench_config ())

(* ------------------------------------------------------------------ *)
(* Substrate microbenches                                              *)
(* ------------------------------------------------------------------ *)

let table10k = Bgp_addr.Prefix_gen.table ~seed:1 ~n:10_000 ()

let bench_attrs =
  Bgp_route.Attrs.Interned.intern
    (Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
       ~next_hop:(ip "192.0.2.1") ~path_len:4 ())

let update1 = Msg.announcement_interned bench_attrs [ table10k.(0) ]
let update1_wire = Codec.encode update1

let update500 =
  Msg.announcement_interned bench_attrs
    (Array.to_list (Array.sub table10k 0 500))

let update500_wire = Codec.encode update500

let wire_tests =
  [ Test.make ~name:"wire/encode-1pfx"
      (Staged.stage @@ fun () -> Codec.encode update1);
    Test.make ~name:"wire/encode-500pfx"
      (Staged.stage @@ fun () -> Codec.encode update500);
    Test.make ~name:"wire/decode-1pfx"
      (Staged.stage @@ fun () -> Result.get_ok (Codec.decode update1_wire));
    Test.make ~name:"wire/decode-update-500"
      (Staged.stage @@ fun () -> Result.get_ok (Codec.decode update500_wire));
    Test.make ~name:"wire/keepalive-roundtrip"
      (Staged.stage @@ fun () ->
       Result.get_ok (Codec.decode (Codec.encode Msg.Keepalive))) ]

(* LPM ablation: the three structures over the same 10k-prefix table. *)
let nh = { Bgp_fib.Fib.nh_addr = ip "192.0.2.1"; nh_port = 0 }

let patricia_build () =
  let t = Bgp_lpm.Patricia.create () in
  Array.iter
    (fun p -> ignore (Bgp_lpm.Patricia.add ~equal:Bgp_fib.Fib.nexthop_equal t p nh))
    table10k;
  t

let patricia_full = patricia_build ()

(* A loaded 10k FIB whose [Replace] deltas alternate each prefix between
   two next hops, so every apply changes the table. *)
let fib_full =
  let f = Bgp_fib.Fib.create () in
  Array.iter (fun p -> ignore (Bgp_fib.Fib.apply f (Bgp_fib.Fib.Add (p, nh)))) table10k;
  f

let replace_deltas =
  let nh' = { nh with Bgp_fib.Fib.nh_port = 1 } in
  Array.concat
    [ Array.map (fun p -> Bgp_fib.Fib.Replace (p, nh')) table10k;
      Array.map (fun p -> Bgp_fib.Fib.Replace (p, nh)) table10k ]

let hash_full =
  let h = Bgp_fib.Hash_lpm.create () in
  Array.iter
    (fun p -> ignore (Bgp_fib.Hash_lpm.add ~equal:Bgp_fib.Fib.nexthop_equal h p nh))
    table10k;
  h

let dir_full =
  Bgp_lpm.Dir24_8.build (Array.to_list (Array.map (fun p -> (p, nh)) table10k))

let probe_addrs =
  Array.init 1024 (fun i ->
      Bgp_addr.Prefix.first table10k.(i * (Array.length table10k / 1024)))

let lookup_all lookup =
  let acc = ref 0 in
  Array.iter (fun a -> if lookup a <> None then incr acc) probe_addrs;
  !acc

let fib_tests =
  [ Test.make ~name:"fib/patricia-build-10k" (Staged.stage patricia_build);
    Test.make ~name:"fib/apply-replace-10k"
      (let i = ref 0 in
       Staged.stage @@ fun () ->
       let d = replace_deltas.(!i) in
       i := (!i + 1) mod Array.length replace_deltas;
       Bgp_fib.Fib.apply fib_full d);
    Test.make ~name:"fib/lookup-1k"
      (Staged.stage @@ fun () -> lookup_all (Bgp_fib.Fib.lookup fib_full));
    Test.make ~name:"fib/dir24-build-10k"
      (Staged.stage @@ fun () ->
       Bgp_lpm.Dir24_8.build
         (Array.to_list (Array.map (fun p -> (p, nh)) table10k)));
    Test.make ~name:"ablation-lpm/patricia-lookup-1k"
      (Staged.stage @@ fun () ->
       lookup_all (Bgp_lpm.Patricia.lookup patricia_full));
    Test.make ~name:"ablation-lpm/hashlpm-lookup-1k"
      (Staged.stage @@ fun () ->
       lookup_all (fun a -> Bgp_fib.Hash_lpm.lookup hash_full a));
    Test.make ~name:"ablation-lpm/dir24-lookup-1k"
      (Staged.stage @@ fun () -> lookup_all (Bgp_lpm.Dir24_8.lookup dir_full)) ]

(* Decision process and RIB machinery. *)
let candidates =
  List.init 8 (fun i ->
      let peer =
        Bgp_route.Peer.make ~id:i
          ~asn:(asn (65001 + i))
          ~router_id:(Bgp_addr.Ipv4.of_octets 192 0 2 (i + 1))
          ~addr:(Bgp_addr.Ipv4.of_octets 192 0 2 (i + 1))
      in
      Bgp_route.Route.make
        ~prefix:(Bgp_addr.Prefix.of_string_exn "203.0.113.0/24")
        ~attrs:
          (Bgp_speaker.Workload.attrs
             ~speaker_asn:(asn (65001 + i))
             ~next_hop:peer.Bgp_route.Peer.addr
             ~path_len:(2 + (i mod 4))
             ())
        ~from:peer)

let rib_bench =
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ~path_len:3 ()
  in
  Test.make ~name:"rib/announce-withdraw-1k"
    (Staged.stage @@ fun () ->
     let rib =
       Bgp_rib.Rib_manager.create ~local_asn:(asn 65000)
         ~router_id:(ip "10.255.0.1") ()
     in
     let p1 =
       Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
         ~addr:(ip "192.0.2.1")
     in
     Bgp_rib.Rib_manager.add_peer rib p1;
     for i = 0 to 999 do
       ignore (Bgp_rib.Rib_manager.announce rib ~from:p1 table10k.(i) attrs)
     done;
     for i = 0 to 999 do
       ignore (Bgp_rib.Rib_manager.withdraw rib ~from:p1 table10k.(i))
     done)

let decision_test =
  Test.make ~name:"rib/decision-8-candidates"
    (Staged.stage @@ fun () ->
     Bgp_rib.Decision.select ~local_asn:(asn 65000) candidates)

(* The Loc-RIB digest every harness run ends with (and the sim-vs-live
   crosscheck compares), over a 100k-route table with varied paths.
   The table is built once, outside the timed runs. *)
let fingerprint_test =
  Test.make_with_resource ~name:"rib/fingerprint-100k" Test.uniq
    ~allocate:(fun () ->
      let rib =
        Bgp_rib.Rib_manager.create ~local_asn:(asn 65000)
          ~router_id:(ip "10.255.0.1") ()
      in
      let peer =
        Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
          ~addr:(ip "192.0.2.1")
      in
      Bgp_rib.Rib_manager.add_peer rib peer;
      List.iter
        (fun e ->
          ignore
            (Bgp_rib.Rib_manager.announce rib ~from:peer
               e.Bgp_speaker.Table_io.e_prefix
               (Bgp_speaker.Table_io.to_attrs ~next_hop:peer.Bgp_route.Peer.addr e)))
        (Bgp_speaker.Table_io.synthesize ~seed:1 ~n:100_000
           ~speaker_asn:(asn 65001) ());
      Bgp_rib.Rib_manager.loc_rib rib)
    ~free:ignore
    (Staged.stage Bgp_rib.Loc_rib.fingerprint)

(* Policy-depth ablation. *)
let policy_of_depth n =
  Bgp_policy.Policy.make ~name:(Printf.sprintf "depth-%d" n)
    (List.init n (fun i ->
         { Bgp_policy.Policy.term_name = Printf.sprintf "t%d" i;
           conds = [ Bgp_policy.Policy.Path_contains (asn (i + 1)) ];
           verdict = Bgp_policy.Policy.Reject }))

let sample_route = List.hd candidates

let policy_tests =
  List.map
    (fun depth ->
      let p = policy_of_depth depth in
      Test.make ~name:(Printf.sprintf "ablation-policy/depth-%d" depth)
        (Staged.stage @@ fun () -> Bgp_policy.Policy.eval p sample_route))
    [ 0; 8; 32 ]

(* Packing ablation: the paper's small-vs-large knob, end to end. *)
let packing_tests =
  List.map
    (fun packing ->
      Test.make ~name:(Printf.sprintf "ablation-packing/%d-per-update" packing)
        (Staged.stage @@ fun () ->
         let config = { bench_config with H.large_packing = max packing 2 } in
         let sc =
           if packing = 1 then Scenario.of_id_exn 1 else Scenario.of_id_exn 2
         in
         (H.run ~config Arch.pentium3 sc).H.tps))
    [ 1; 50; 500 ]

(* Decision-process scaling with the number of candidate routes. *)
let candidates_of n =
  List.filteri (fun i _ -> i < n) (candidates @ candidates @ candidates @ candidates)

let decision_scaling_tests =
  List.map
    (fun n ->
      let cs =
        List.mapi
          (fun i r ->
            Bgp_route.Route.make
              ~prefix:(Bgp_route.Route.prefix r)
              ~attrs:(Bgp_route.Route.attrs r)
              ~from:
                (Bgp_route.Peer.make ~id:i
                   ~asn:(asn (64000 + i))
                   ~router_id:(Bgp_addr.Ipv4.of_int (1000 + i))
                   ~addr:(Bgp_addr.Ipv4.of_int (1000 + i))))
          (candidates_of n)
      in
      Test.make ~name:(Printf.sprintf "ablation-decision/candidates-%d" n)
        (Staged.stage @@ fun () ->
         Bgp_rib.Decision.select ~local_asn:(asn 65000) cs))
    [ 2; 8; 32 ]

(* Aggregation cost: announce/withdraw 1k prefixes with and without a
   configured covering aggregate. *)
let rib_agg_tests =
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ~path_len:3 ()
  in
  let mk_run aggregates () =
    let rib =
      Bgp_rib.Rib_manager.create ?aggregates ~local_asn:(asn 65000)
        ~router_id:(ip "10.255.0.1") ()
    in
    let p1 =
      Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
        ~addr:(ip "192.0.2.1")
    in
    Bgp_rib.Rib_manager.add_peer rib p1;
    for i = 0 to 999 do
      ignore (Bgp_rib.Rib_manager.announce rib ~from:p1 table10k.(i) attrs)
    done;
    for i = 0 to 999 do
      ignore (Bgp_rib.Rib_manager.withdraw rib ~from:p1 table10k.(i))
    done
  in
  [ Test.make ~name:"ablation-aggregation/off"
      (Staged.stage (mk_run None));
    Test.make ~name:"ablation-aggregation/default-route-aggregate"
      (Staged.stage
         (mk_run
            (Some
               [ { Bgp_rib.Rib_manager.agg_prefix = Bgp_addr.Prefix.default;
                   agg_as_set = false; agg_summary_only = false } ]))) ]

(* Workload realism ablation: the paper's uniform paths vs an
   Internet-shaped mix. *)
let workload_shape_tests =
  [ Test.make ~name:"ablation-workload/uniform-paths"
      (Staged.stage @@ fun () ->
       (H.run ~config:bench_config Arch.pentium3 (Scenario.of_id_exn 2)).H.tps);
    Test.make ~name:"ablation-workload/varied-paths"
      (Staged.stage @@ fun () ->
       (H.run
          ~config:{ bench_config with H.varied_paths = true }
          Arch.pentium3 (Scenario.of_id_exn 2))
         .H.tps) ]

(* MRAI ablation: outbound advertisement batching on scenario 7. *)
let mrai_tests =
  [ Test.make ~name:"ablation-mrai/off"
      (Staged.stage @@ fun () ->
       (H.run ~config:bench_config Arch.pentium3 (Scenario.of_id_exn 7)).H.msgs_tx);
    Test.make ~name:"ablation-mrai/1s"
      (Staged.stage @@ fun () ->
       (H.run
          ~config:{ bench_config with H.mrai = Some 1.0 }
          Arch.pentium3 (Scenario.of_id_exn 7))
         .H.msgs_tx) ]

(* Stream framing throughput: reassemble a 50-message burst fed in
   1400-byte chunks (TCP segment sized). *)
let framer_test =
  let burst =
    String.concat ""
      (List.init 50 (fun i ->
           Codec.encode
             (Msg.announcement
                (Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
                   ~next_hop:(ip "192.0.2.1") ~path_len:3 ())
                (Array.to_list (Array.sub table10k (i * 20) 20)))))
  in
  Test.make ~name:"fsm/framer-50-updates-chunked"
    (Staged.stage @@ fun () ->
     let f = Bgp_fsm.Framer.create () in
     let n = String.length burst in
     let i = ref 0 in
     let count = ref 0 in
     while !i < n do
       let take = min 1400 (n - !i) in
       Bgp_fsm.Framer.feed f (String.sub burst !i take);
       i := !i + take;
       let continue = ref true in
       while !continue do
         match Bgp_fsm.Framer.next f with
         | Bgp_fsm.Framer.Msg _ -> incr count
         | _ -> continue := false
       done
     done;
     assert (!count = 50))

(* The real RFC 1812 fast path on wire bytes — the work the fluid
   forwarding model's cycles-per-packet constant abstracts. *)
let forward_wire_test =
  let fib = Bgp_fib.Fib.create () in
  Array.iter
    (fun p -> ignore (Bgp_fib.Fib.apply fib (Bgp_fib.Fib.Add (p, nh))))
    table10k;
  let wire =
    Bgp_netsim.Ip_packet.serialize
      (Bgp_netsim.Ip_packet.make ~src:(ip "10.0.0.1")
         ~dst:(Bgp_addr.Prefix.first table10k.(42))
         (String.make 36 'x'))
  in
  Test.make ~name:"datapath/rfc1812-forward-64B-packet"
    (Staged.stage @@ fun () ->
     Result.get_ok (Bgp_netsim.Ip_packet.forward_wire fib wire))

(* Attribute-arena microbenches: interning a varied table (mostly
   hits), and the O(1) handle equality against the structural walk it
   replaces. *)
let arena_tests =
  let module I = Bgp_route.Attrs.Interned in
  let varied_attrs =
    List.map
      (Bgp_speaker.Table_io.to_attrs ~next_hop:(ip "192.0.2.1"))
      (Bgp_speaker.Table_io.synthesize ~seed:3 ~n:1000 ~speaker_asn:(asn 65001)
         ())
  in
  let ha = I.intern (List.hd varied_attrs) in
  let hb = I.intern (List.nth varied_attrs 1) in
  [ Test.make ~name:"arena/intern-1k-varied"
      (Staged.stage @@ fun () ->
       List.iter (fun at -> ignore (I.intern at)) varied_attrs);
    Test.make ~name:"arena/interned-equal"
      (Staged.stage @@ fun () -> I.equal ha hb);
    Test.make ~name:"arena/structural-equal"
      (Staged.stage @@ fun () ->
       Bgp_route.Attrs.equal (I.value ha) (I.value hb)) ]

let gen_test =
  Test.make ~name:"workload/prefix-table-10k"
    (Staged.stage @@ fun () -> Bgp_addr.Prefix_gen.table ~seed:9 ~n:10_000 ())

(* The Barabási–Albert generator used to rebuild its endpoint bag per
   vertex (quadratic); these pin the linear rewrite at the scales the
   partitioned topology runs use. *)
let topo_gen_tests =
  [ Test.make ~name:"topo/ba-generate-1k"
      (Staged.stage @@ fun () ->
       Bgp_topo.Topology.make ~seed:9 Bgp_topo.Topology.Scale_free ~n:1_000);
    Test.make ~name:"topo/ba-generate-10k"
      (Staged.stage @@ fun () ->
       Bgp_topo.Topology.make ~seed:9 Bgp_topo.Topology.Scale_free ~n:10_000);
    Test.make ~name:"topo/partition-ba-10k-8way"
      (let topo =
         Bgp_topo.Topology.make ~seed:9 Bgp_topo.Topology.Scale_free ~n:10_000
       in
       Staged.stage @@ fun () -> Bgp_topo.Partition.assign topo ~parts:8) ]

let sim_test =
  Test.make ~name:"sim/schedule-drain-10k-events"
    (Staged.stage @@ fun () ->
     let e = Bgp_engine.Engine.create () in
     for i = 1 to 10_000 do
       ignore (Bgp_engine.Engine.schedule e ~delay:(float_of_int i *. 1e-3) ignore)
     done;
     Bgp_engine.Engine.run e)

(* ------------------------------------------------------------------ *)
(* Per-stage cost breakdown preamble                                   *)
(* ------------------------------------------------------------------ *)

(* One complete scenario-1 run per architecture, reporting where the
   simulated cycles went stage by stage.  Also the `--smoke` payload:
   a cheap end-to-end exercise of harness + pipeline + reporting. *)
let print_stage_breakdowns () =
  let sc = Scenario.of_id_exn 1 in
  Format.printf
    "Per-stage cycle breakdown (scenario %d, %d prefixes, small packets):@.@."
    sc.Scenario.id bench_config.H.table_size;
  List.iter
    (fun arch ->
      let r = H.run ~config:bench_config arch sc in
      assert (r.H.verified = Ok ());
      Format.printf "%s: %.1f transactions/s@.%a@." r.H.arch_name r.H.tps
        Bgp_pipeline.Pipeline.pp_stage_stats r.H.stage_stats)
    Arch.all

(* Fault-injection smoke: both adversarial scenarios on one
   architecture, asserting the router survived, answered every
   malformed UPDATE with the predicted NOTIFICATION, and re-converged
   after every teardown. *)
let print_fault_smoke () =
  let config = { bench_config with H.fault_rounds = 2 } in
  Format.printf "Fault-injection smoke (%d prefixes, %d rounds):@.@."
    config.H.table_size config.H.fault_rounds;
  List.iter
    (fun sc ->
      let r = H.run ~config Arch.pentium3 sc in
      assert (r.H.verified = Ok ());
      let m = r.H.metrics in
      let _, reconverge_mean, _ = Faults.reconvergence_in m in
      Format.printf
        "%s: %.1f transactions/s; faults injected %d, malformed dropped %d, \
         session restarts %d, re-convergence mean %.3fs@."
        (Scenario.name sc) r.H.tps (Faults.injected_in m)
        (Faults.malformed_dropped_in m) (Faults.session_restarts_in m)
        reconverge_mean)
    Scenario.adversarial;
  Format.printf "@."

(* Two-sided allocation gate against a checked-in baseline: >20% above
   is a regression, >20% below means the code got better and the
   checked-in number is stale — both fail (exit 1) so the baseline always
   tracks reality. *)
let alloc_gate ?(line = 1) ~unit name measured =
  match List.find_opt Sys.file_exists [ "bench/" ^ name; name ] with
  | None -> Format.printf "  (no %s found; skipping regression gate)@.@." name
  | Some file ->
    let ic = open_in file in
    let baseline =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          for _ = 2 to line do
            ignore (input_line ic)
          done;
          float_of_string (String.trim (input_line ic)))
    in
    let upper = baseline *. 1.2 and lower = baseline /. 1.2 in
    Format.printf "  baseline %.0f %s (gate: %.0f .. %.0f)@.@." baseline unit
      lower upper;
    if measured > upper then begin
      Format.eprintf
        "allocation regression: %.0f %s exceeds baseline %.0f by more than \
         20%%@."
        measured unit baseline;
      exit 1
    end;
    if measured < lower then begin
      Format.eprintf
        "allocation baseline is stale: measured %.0f %s is more than 20%% \
         below the checked-in %.0f — update %s@."
        measured unit baseline file;
      exit 1
    end

(* Minor words per encode of a one-prefix announcement whose handle
   has been encoded before: the output string and nothing else. *)
let encode_words_per_msg ~msgs =
  ignore (Sys.opaque_identity (Codec.encode update1));
  let before = Gc.minor_words () in
  for _ = 1 to msgs do
    ignore (Sys.opaque_identity (Codec.encode update1))
  done;
  (Gc.minor_words () -. before) /. float_of_int msgs

(* Allocation-regression smoke: replay a 20k-prefix table through the
   receiver path with the arena on and gate Gc.allocated_bytes per
   UPDATE, over the whole replay (line 1 of alloc_baseline.txt) and over
   its challenger phase alone (line 2), where no update changes a best;
   then run the CPU scheduler's zero-cycle pipeline chain and gate its
   minor words per job, and gate the minor words of one UPDATE
   encode. *)
let print_alloc_smoke () =
  let sweep = Bgpmark.Arena_sweep.run ~seed:42 [ 20_000 ] in
  let shared = List.hd sweep.Bgpmark.Arena_sweep.cells in
  let measured = shared.Bgpmark.Arena_sweep.sw_alloc_per_update in
  Format.printf
    "Allocation smoke (20k-prefix table, arena on): %.0f B/update, hit rate \
     %.1f%%@."
    measured
    (100.0 *. shared.Bgpmark.Arena_sweep.sw_hit_rate);
  Format.printf
    "  challenger phase (scenario-5/6 shape): %.0f B/update, %.0f msgs/s \
     unpaced@."
    shared.Bgpmark.Arena_sweep.sw_chal_alloc_per_update
    shared.Bgpmark.Arena_sweep.sw_chal_tps;
  alloc_gate ~unit:"B/update" "alloc_baseline.txt" measured;
  alloc_gate ~line:2 ~unit:"B/update" "alloc_baseline.txt"
    shared.Bgpmark.Arena_sweep.sw_chal_alloc_per_update;
  let words = Bgpmark.Sched_alloc.words_per_job ~jobs:20_000 in
  Format.printf
    "Scheduler step (zero-cycle jobs, 4-process pipeline): %.0f words/job@."
    words;
  alloc_gate ~unit:"words/job" "sched_alloc_baseline.txt" words;
  let words = encode_words_per_msg ~msgs:20_000 in
  Format.printf "UPDATE encode (one prefix, handle seen before): %.0f words/msg@."
    words;
  alloc_gate ~unit:"words/msg" "encode_alloc_baseline.txt" words

(* MRT smoke: a synthesized dump must survive a write -> read
   roundtrip bit for bit, and scenario 13 must replay it through the
   harness and verify against the replay oracle — all offline, no
   external trace. *)
let print_mrt_smoke () =
  let module Mrt = Bgp_mrt.Mrt in
  let records =
    Bgp_speaker.Mrt_gen.records ~seed:bench_config.H.seed ~events:40
      ~n:bench_config.H.table_size ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ()
  in
  let bytes = Mrt.to_string records in
  (match Mrt.of_string bytes with
  | Error e -> failwith ("MRT roundtrip failed: " ^ e)
  | Ok (records', skipped) ->
    assert (skipped = 0);
    assert (List.length records' = List.length records);
    assert (Mrt.to_string records' = bytes));
  let config = { bench_config with H.replay_events = Some 40 } in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 13) in
  assert (r.H.verified = Ok ());
  Format.printf
    "MRT smoke: %d-record dump roundtripped (%d bytes); replay %.1f \
     transactions/s, FIB end size %d@.@."
    (List.length records) (String.length bytes) r.H.tps r.H.fib_size_end

(* Damping smoke: the scenario-14 flap storm must verify (which covers
   reuse of every suppressed route) and suppress flapping routes, and a
   damped scenario-10 run must leave the Loc-RIB fingerprint of the
   undamped run intact (damping off by default is the Table III
   determinism guarantee). *)
let print_damping_smoke () =
  let config = { bench_config with H.fault_rounds = 3 } in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 14) in
  assert (r.H.verified = Ok ());
  let m = r.H.metrics in
  assert (Damping.suppressions_in m > 0);
  let sc10 = Scenario.of_id_exn 10 in
  let plain = H.run ~config Arch.pentium3 sc10 in
  let damped =
    H.run
      ~config:{ config with H.damping = Some Damping.test_config }
      Arch.pentium3 sc10
  in
  assert (plain.H.verified = Ok ());
  assert (damped.H.verified = Ok ());
  assert (plain.H.used.H.damping = None);
  assert (plain.H.locrib_fp = damped.H.locrib_fp);
  let _, reuse_mean, _ = Damping.reuse_latency_in m in
  Format.printf
    "Damping smoke (scenario 14, %d rounds): %d flaps, %d suppressed, %d \
     reused, reuse latency mean %.2fs; damped scenario-10 fingerprint \
     unchanged@.@."
    config.H.fault_rounds (Damping.flaps_in m) (Damping.suppressions_in m)
    (Damping.reuses_in m) reuse_mean

(* Churn smoke: one small scenario-16 run — batched /32 injection at an
   exact prefix limit with MRAI on, Markov churn, failover sweep — must
   verify against the subscriber-plan oracle (which covers timing every
   swept withdrawal at speaker 2). *)
let print_churn_smoke () =
  let sub_cfg =
    { Bgp_speaker.Subscriber.subscribers = 1_000; batch = 200;
      batch_interval = 0.02; churn_rate = 200.0; churn_duration = 0.5;
      seed = bench_config.H.seed }
  in
  let config = { bench_config with H.churn = Some sub_cfg } in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 16) in
  assert (r.H.verified = Ok ());
  let c = Option.get r.H.churn in
  let swept, _, _ = H.sweep_latency_in r.H.metrics in
  Format.printf
    "Churn smoke (%d subscribers, %d events): injection %.0f tps, churn %.0f \
     tps, failover swept %d routes in %.3fs@.@."
    r.H.used.H.table_size c.H.cr_churn.Testbed.transactions
    (Testbed.tps c.H.cr_injection) (Testbed.tps c.H.cr_churn) swept
    c.H.cr_failover_s

(* Live-mode smoke: one real-TCP harness run (scenario 5, the
   best-vs-challenger shape the incremental decision path serves) must
   finish and verify — sessions establish over loopback, the table
   loads, the challenger phase completes, and the Loc-RIB checks out.
   Small table: this guards the live plumbing, not throughput. *)
let print_live_smoke () =
  let sc = Scenario.of_id_exn 5 in
  let config = { bench_config with H.mode = H.Live; H.timeout = 60.0 } in
  let r = H.run ~config Arch.pentium3 sc in
  assert (r.H.verified = Ok ());
  Format.printf "Live smoke (%s, %d prefixes, real TCP): %.1f transactions/s@.@."
    (Scenario.name sc) config.H.table_size r.H.tps

let fault_tests =
  List.map
    (fun sc ->
      Test.make ~name:(Printf.sprintf "faults/scenario%d" sc.Scenario.id)
        (Staged.stage @@ fun () ->
         let config = { bench_config with H.fault_rounds = 2 } in
         let r = H.run ~config Arch.pentium3 sc in
         assert (r.H.verified = Ok ());
         r.H.tps))
    Scenario.adversarial

(* MRT replay and flap damping (scenarios 13-14), wall-clock cost of
   the full dump-synthesize + parse + replay cycle. *)
let mrt_tests =
  [ Test.make ~name:"mrt/scenario13-replay"
      (Staged.stage @@ fun () ->
       let config = { bench_config with H.replay_events = Some 40 } in
       let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 13) in
       assert (r.H.verified = Ok ());
       r.H.tps);
    Test.make ~name:"mrt/scenario14-damping"
      (Staged.stage @@ fun () ->
       let config = { bench_config with H.fault_rounds = 2 } in
       let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 14) in
       assert (r.H.verified = Ok ());
       r.H.tps) ]

(* Subscriber-edge churn (scenario 16): wall-clock cost of the full
   inject + churn + failover cycle on the simulated clock. *)
let churn_tests =
  [ Test.make ~name:"churn/scenario16-1k"
      (Staged.stage @@ fun () ->
       let sub_cfg =
         { Bgp_speaker.Subscriber.subscribers = 1_000; batch = 200;
           batch_interval = 0.02; churn_rate = 200.0; churn_duration = 0.5;
           seed = bench_config.H.seed }
       in
       let config = { bench_config with H.churn = Some sub_cfg } in
       let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 16) in
       assert (r.H.verified = Ok ());
       r.H.tps) ]

(* Multi-router topology: scenario 11 at growing graph sizes plus one
   scenario-12 link failure.  These measure the wall-clock cost of
   simulating the whole graph; the convergence numbers themselves are
   virtual time, reported by `bgpbench topo`. *)
let topo_tests =
  let module Topology = Bgp_topo.Topology in
  let module TB = Bgp_topo.Topo_bench in
  List.map
    (fun n ->
      Test.make ~name:(Printf.sprintf "topo/convergence-ba%d" n)
        (Staged.stage @@ fun () ->
         let r =
           TB.run_scale ~mode:Bgp_topo.Net.Transit ~kind:Topology.Scale_free
             ~n ()
         in
         assert (r.TB.sc_verified = Ok ());
         r.TB.sc_announce_s))
    [ 4; 8; 16 ]
  @ [ Test.make ~name:"topo/link-failure-ba16"
        (Staged.stage @@ fun () ->
         let r = TB.run_link_failure ~kind:Topology.Scale_free ~n:16 () in
         assert (r.TB.lf_verified = Ok ());
         r.TB.lf_heal_s) ]

(* Structured tracing: the recorder must stay cheap enough to leave on
   (ring-slot writes, no I/O), and a traced harness run must not change
   the measured result.  The smoke variant asserts both. *)
let trace_tests =
  let module Tracer = Bgp_trace.Tracer in
  [ Test.make ~name:"trace/record-100k-spans"
      (Staged.stage @@ fun () ->
       let tr = Tracer.create ~capacity:(1 lsl 16) () in
       let tk = Tracer.track tr ~thread:"cpu" () in
       for i = 0 to 99_999 do
         let t0 = float_of_int i *. 1e-6 in
         Tracer.span tr tk ~name:"decision" ~ts:t0 ~dur:1e-6
           ~args:[ ("units", Tracer.Int 1) ] ()
       done;
       Tracer.recorded tr);
    Test.make ~name:"trace/chrome-export-50k-events"
      (Staged.stage @@ fun () ->
       let tr = Tracer.create ~capacity:(1 lsl 16) () in
       let tk = Tracer.track tr ~thread:"cpu" () in
       for i = 0 to 49_999 do
         Tracer.instant tr tk ~name:"run" ~ts:(float_of_int i *. 1e-6) ()
       done;
       String.length (Bgp_trace.Chrome.to_string tr)) ]

let print_trace_smoke () =
  let module Tracer = Bgp_trace.Tracer in
  let sc = Scenario.of_id_exn 1 in
  let base = H.run ~config:bench_config Arch.pentium3 sc in
  let tr = Tracer.create () in
  let traced =
    H.run ~config:{ bench_config with H.tracer = Some tr } Arch.pentium3 sc
  in
  assert (base.H.tps = traced.H.tps);
  let names =
    List.filter_map
      (fun e ->
        match e.Tracer.ev_phase with
        | Tracer.Span -> Some e.Tracer.ev_name
        | _ -> None)
      (Tracer.events tr)
  in
  List.iter
    (fun st -> assert (List.mem st names))
    [ "wire-decode"; "import-policy"; "adj-rib-in"; "decision";
      "fib-install"; "export-policy"; "mrai-pacing" ];
  Format.printf
    "Trace smoke: %d events recorded (%d dropped), tps unchanged at %.1f@.@."
    (Tracer.recorded tr) (Tracer.dropped tr) traced.H.tps

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let all_tests =
  [ table1_test; table2_test ]
  @ table3_tests
  @ [ fig3_test; fig4_test ]
  @ fig5_tests
  @ [ fig6_test ]
  @ wire_tests @ fib_tests
  @ [ rib_bench; decision_test; fingerprint_test ]
  @ policy_tests @ packing_tests @ decision_scaling_tests @ rib_agg_tests
  @ workload_shape_tests @ mrai_tests @ fault_tests @ mrt_tests @ churn_tests
  @ topo_tests
  @ arena_tests
  @ trace_tests
  @ [ framer_test; forward_wire_test; gen_test ]
  @ topo_gen_tests
  @ [ sim_test ]

let () =
  print_stage_breakdowns ();
  print_fault_smoke ();
  print_mrt_smoke ();
  print_damping_smoke ();
  print_churn_smoke ();
  print_alloc_smoke ();
  print_live_smoke ();
  print_trace_smoke ();
  (* --smoke: the breakdown runs above are a complete (if small)
     harness exercise; stop before the wall-clock measurements. *)
  if Array.mem "--smoke" Sys.argv then begin
    print_endline "smoke OK";
    exit 0
  end;
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-42s %14s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock m in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
          let time_str =
            if Float.is_nan ns then "n/a"
            else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "%-42s %14s %8.3f\n%!" (Test.Elt.name elt) time_str r2)
        (Test.elements test))
    all_tests;
  Printf.printf "\n%d benchmarks completed.\n" (List.length all_tests)
