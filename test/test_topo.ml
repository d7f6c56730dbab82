(* Tests for lib/topo: generators, convergence, determinism, policy. *)

module Clock = Bgp_engine.Clock
module Topology = Bgp_topo.Topology
module Net = Bgp_topo.Net
module Gao_rexford = Bgp_topo.Gao_rexford
module Partition = Bgp_topo.Partition
module Router = Bgp_router.Router

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_shapes () =
  let line = Topology.make Topology.Line ~n:5 in
  check_int "line edges" 4 (Topology.edge_count line);
  let ring = Topology.make Topology.Ring ~n:5 in
  check_int "ring edges" 5 (Topology.edge_count ring);
  check "ring wraps" true (Topology.is_edge ring 0 4);
  let star = Topology.make Topology.Star ~n:6 in
  check_int "star edges" 5 (Topology.edge_count star);
  check_int "star hub degree" 5 (Topology.degree star 0);
  let clique = Topology.make Topology.Clique ~n:5 in
  check_int "clique edges" 10 (Topology.edge_count clique);
  let grid = Topology.make Topology.Grid ~n:9 in
  (* 3x3 grid: 6 horizontal + 6 vertical *)
  check_int "grid edges" 12 (Topology.edge_count grid);
  let ba = Topology.make Topology.Scale_free ~n:16 in
  (* triangle (3) + 2 per additional vertex *)
  check_int "BA edges" (3 + (2 * 13)) (Topology.edge_count ba)

let connected topo =
  let n = topo.Topology.n in
  let seen = Array.make n false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter dfs (Topology.neighbors topo v)
    end
  in
  dfs 0;
  Array.for_all Fun.id seen

let test_generators_connected () =
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let topo = Topology.make kind ~n in
          check
            (Printf.sprintf "%s n=%d connected" (Topology.kind_to_string kind) n)
            true (connected topo))
        [ 2; 3; 7; 16 ])
    Topology.all_kinds

let test_generator_determinism () =
  let a = Topology.make ~seed:7 Topology.Scale_free ~n:24 in
  let b = Topology.make ~seed:7 Topology.Scale_free ~n:24 in
  check "same seed, same graph" true (a.Topology.edges = b.Topology.edges);
  let c = Topology.make ~seed:8 Topology.Scale_free ~n:24 in
  check "different seed, different graph" true
    (a.Topology.edges <> c.Topology.edges)

(* ------------------------------------------------------------------ *)
(* Convergence                                                         *)
(* ------------------------------------------------------------------ *)

let test_clique_convergence () =
  let net = Net.create (Topology.make Topology.Clique ~n:4) in
  Net.establish net;
  Net.originate_all net;
  let dt = Net.converge ~what:"clique full origination" net in
  check "positive convergence time" true (dt > 0.0);
  for i = 0 to 3 do
    for j = 0 to 3 do
      check
        (Printf.sprintf "%d reaches %d" i j)
        true (Net.reachability net i j)
    done;
    check_int
      (Printf.sprintf "node %d loc-rib size" i)
      4
      (Bgp_rib.Loc_rib.size
         (Bgp_rib.Rib_manager.loc_rib (Router.rib (Net.router net i))))
  done

let test_withdraw_reconvergence () =
  let net = Net.create (Topology.make Topology.Ring ~n:6) in
  Net.establish net;
  Net.originate net 0;
  ignore (Net.converge ~what:"announce" net);
  check "all nodes reach origin" true
    (List.for_all (fun i -> Net.reachability net i 0) [ 1; 2; 3; 4; 5 ]);
  Net.withdraw_origin net 0;
  ignore (Net.converge ~what:"withdraw" net);
  check "withdraw flushed everywhere" true
    (List.for_all (fun i -> not (Net.reachability net i 0)) [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Determinism: acceptance gate for the subsystem                      *)
(* ------------------------------------------------------------------ *)

let converged_ba16 () =
  let net = Net.create (Topology.make ~seed:7 Topology.Scale_free ~n:16) in
  Net.establish net;
  Net.originate_all net;
  let dt = Net.converge ~what:"BA-16 full origination" net in
  (net, dt)

let test_ba16_deterministic () =
  let net1, dt1 = converged_ba16 () in
  let net2, dt2 = converged_ba16 () in
  Alcotest.(check (float 0.0)) "identical convergence time" dt1 dt2;
  for i = 0 to 15 do
    let k1 = Router.counters (Net.router net1 i)
    and k2 = Router.counters (Net.router net2 i) in
    check_int
      (Printf.sprintf "node %d updates_rx" i)
      k1.Router.updates_rx k2.Router.updates_rx;
    check_int
      (Printf.sprintf "node %d msgs_tx" i)
      k1.Router.msgs_tx k2.Router.msgs_tx;
    Alcotest.(check string)
      (Printf.sprintf "node %d loc-rib" i)
      (Net.loc_rib_fingerprint net1 i)
      (Net.loc_rib_fingerprint net2 i)
  done

(* ------------------------------------------------------------------ *)
(* Scenario drivers                                                    *)
(* ------------------------------------------------------------------ *)

let ok_run = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "verification failed: %s" e

let test_scenario11_ring () =
  let r =
    Bgp_topo.Topo_bench.run_scale ~mode:Net.Transit ~kind:Topology.Ring ~n:8
      ()
  in
  ok_run r.Bgp_topo.Topo_bench.sc_verified;
  check_int "all nodes reached" 8 r.Bgp_topo.Topo_bench.sc_reached;
  check "announce converged in positive time" true
    (r.Bgp_topo.Topo_bench.sc_announce_s > 0.0);
  check "announce generated updates" true
    (r.Bgp_topo.Topo_bench.sc_announce_updates > 0)

let test_scenario12_ba16_path_hunting () =
  (* Cut a hub edge whose endpoints share no good alternate: on this
     seeded graph the 0-7 cut transiently starves several nodes of all
     candidates (split-horizon hid the detours), forcing genuine
     withdraw-then-relearn path exploration, not a one-step switch. *)
  let r =
    Bgp_topo.Topo_bench.run_link_failure ~seed:7 ~kind:Topology.Scale_free
      ~n:16 ~cut:(0, 7) ()
  in
  ok_run r.Bgp_topo.Topo_bench.lf_verified;
  check "cut survivable" false r.Bgp_topo.Topo_bench.lf_partitioned;
  check "re-convergence takes time" true
    (r.Bgp_topo.Topo_bench.lf_heal_s > 0.0);
  check "some prefixes affected" true
    (r.Bgp_topo.Topo_bench.lf_affected > 0);
  (* The acceptance gate: the cut must trigger measurable path hunting,
     i.e. some (node, prefix) pair explores more than one path. *)
  check "path hunting observed" true
    (r.Bgp_topo.Topo_bench.lf_max_explored > 1);
  check "withdrawals flowed" true (r.Bgp_topo.Topo_bench.lf_withdrawn_rx > 0)

let test_scenario12_partition () =
  let r =
    Bgp_topo.Topo_bench.run_link_failure ~kind:Topology.Line ~n:4 ()
  in
  check "line cut partitions" true r.Bgp_topo.Topo_bench.lf_partitioned;
  ok_run r.Bgp_topo.Topo_bench.lf_verified

(* Scenario 15 is scenario 11's episode split over domains: scenario
   11 is the one-domain run, and the two-domain run verifies (the
   withdrawal drains every node) with its fingerprint and outcome. *)
let test_scenario15_matches_11 () =
  let module TB = Bgp_topo.Topo_bench in
  let kind = Topology.Scale_free and n = 40 and seed = 11 in
  let scale domains =
    TB.run_scale ~mode:Net.Gao_rexford ~seed ~domains ~kind ~n ()
  in
  let seq = scale 1 and two = scale 2 in
  ok_run seq.TB.sc_verified;
  check "origin reaches beyond itself" true (seq.TB.sc_reached > 1);
  Alcotest.(check string) "fingerprint independent of domains"
    seq.TB.sc_fingerprint two.TB.sc_fingerprint;
  ok_run two.TB.sc_verified;
  check_int "reached" seq.TB.sc_reached two.TB.sc_reached;
  Alcotest.(check (float 0.0)) "announce_s" seq.TB.sc_announce_s
    two.TB.sc_announce_s;
  Alcotest.(check (float 0.0)) "withdraw_s" seq.TB.sc_withdraw_s
    two.TB.sc_withdraw_s

(* ------------------------------------------------------------------ *)
(* Gao-Rexford policies                                                *)
(* ------------------------------------------------------------------ *)

let test_gao_rexford_tiers () =
  check_int "vertex 0 tier" 0 (Gao_rexford.tier 0);
  check_int "vertex 1 tier" 1 (Gao_rexford.tier 1);
  check_int "vertex 2 tier" 1 (Gao_rexford.tier 2);
  check_int "vertex 3 tier" 2 (Gao_rexford.tier 3);
  check_int "vertex 6 tier" 2 (Gao_rexford.tier 6);
  check_int "vertex 7 tier" 3 (Gao_rexford.tier 7);
  check "1-2 peer" true
    (Gao_rexford.relation_between ~self:1 ~neighbor:2 = Gao_rexford.Peer);
  check "0 sees 1 as customer" true
    (Gao_rexford.relation_between ~self:0 ~neighbor:1 = Gao_rexford.Customer);
  check "1 sees 0 as provider" true
    (Gao_rexford.relation_between ~self:1 ~neighbor:0 = Gao_rexford.Provider)

(* Line 0-1-2: edge 0-1 is provider-customer, edge 1-2 is peer-peer.
   Valley-free means node 1 must not carry traffic between its provider
   and its peer: 0's prefix never reaches 2 and 2's never reaches 0. *)
let test_gao_rexford_valley_free () =
  let net =
    Net.create ~mode:Net.Gao_rexford (Topology.make Topology.Line ~n:3)
  in
  Net.establish net;
  Net.originate_all net;
  ignore (Net.converge ~what:"gao-rexford line" net);
  check "1 reaches 0 (customer to provider)" true (Net.reachability net 1 0);
  check "1 reaches 2 (peer)" true (Net.reachability net 1 2);
  check "0 reaches 1 (provider of 1)" true (Net.reachability net 0 1);
  check "2 reaches 1 (peer)" true (Net.reachability net 2 1);
  check "2 must NOT reach 0 (provider route not exported to a peer)" false
    (Net.reachability net 2 0);
  check "0 must NOT reach 2 (peer route not exported to a provider)" false
    (Net.reachability net 0 2)

let test_gao_rexford_oracle_agrees () =
  List.iter
    (fun (kind, n) ->
      let r =
        Bgp_topo.Topo_bench.run_scale ~mode:Net.Gao_rexford ~seed:5 ~kind ~n
          ()
      in
      ok_run r.Bgp_topo.Topo_bench.sc_verified)
    [ (Topology.Line, 6); (Topology.Ring, 7); (Topology.Star, 5);
      (Topology.Grid, 9); (Topology.Scale_free, 12) ]

(* ------------------------------------------------------------------ *)
(* Router regression: duplicate peer attachment                        *)
(* ------------------------------------------------------------------ *)

let test_duplicate_attach_rejected () =
  let module Engine = Bgp_engine.Engine in
  let module Channel = Bgp_netsim.Channel in
  let engine = Engine.create () in
  let router =
    Router.create (Clock.of_engine engine) Bgp_router.Arch.pentium3
      ~local_asn:(Bgp_route.Asn.of_int 65000)
      ~router_id:(Bgp_addr.Ipv4.of_octets 192 0 2 1)
  in
  let peer id =
    Bgp_route.Peer.make ~id ~asn:(Bgp_route.Asn.of_int 65001)
      ~router_id:(Bgp_addr.Ipv4.of_octets 192 0 2 2)
      ~addr:(Bgp_addr.Ipv4.of_octets 192 0 2 2)
  in
  let ch1 = Channel.create engine () in
  Router.attach_peer router ~peer:(peer 0) ~link:(Channel.endpoint ch1 Channel.A);
  let ch2 = Channel.create engine () in
  Alcotest.check_raises "duplicate id rejected"
    (Invalid_argument "Router.attach_peer: duplicate id 0") (fun () ->
      Router.attach_peer router ~peer:(peer 0)
        ~link:(Channel.endpoint ch2 Channel.A))

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let test_partition_assign () =
  List.iter
    (fun (kind, n) ->
      let topo = Topology.make ~seed:7 kind ~n in
      List.iter
        (fun parts ->
          let label fmt =
            Printf.ksprintf
              (fun s ->
                Printf.sprintf "%s n=%d parts=%d: %s"
                  (Topology.kind_to_string kind) n parts s)
              fmt
          in
          let part = Partition.assign topo ~parts in
          check_int (label "length") n (Array.length part);
          Array.iter
            (fun p -> check (label "in range") true (p >= 0 && p < parts))
            part;
          let cap = (n + parts - 1) / parts in
          Array.iter
            (fun s -> check (label "balance cap") true (s <= cap))
            (Partition.sizes part ~parts);
          check (label "deterministic") true
            (part = Partition.assign topo ~parts))
        [ 1; 2; 3; 4 ])
    [ (Topology.Scale_free, 24); (Topology.Ring, 16); (Topology.Grid, 16) ];
  let line = Topology.make Topology.Line ~n:8 in
  check "parts=1 is all-zero" true
    (Array.for_all (fun p -> p = 0) (Partition.assign line ~parts:1));
  Alcotest.check_raises "parts=0 rejected"
    (Invalid_argument "Partition.assign: parts must be >= 1") (fun () ->
      ignore (Partition.assign line ~parts:0));
  Alcotest.check_raises "parts>n rejected"
    (Invalid_argument "Partition.assign: 9 partitions for 8 vertices")
    (fun () -> ignore (Partition.assign line ~parts:9))

let test_partition_cut_edges () =
  let ring = Topology.make Topology.Ring ~n:16 in
  let part = Partition.assign ring ~parts:2 in
  let cut = Partition.cut_edges ring part in
  (* A ring split into two contiguous arcs cuts exactly 2 edges; any
     2-partition of a cycle cuts an even, positive number. *)
  check "ring cut is positive and even" true (cut > 0 && cut mod 2 = 0);
  check_int "parts=1 cuts nothing" 0
    (Partition.cut_edges ring (Partition.assign ring ~parts:1))

(* ------------------------------------------------------------------ *)
(* Multi-domain differential                                           *)
(* ------------------------------------------------------------------ *)

(* Satellite property: on random small graphs the converged Loc-RIB
   and FIB of every node are independent of the domain count. *)
let prop_domains_equivalent =
  QCheck2.Test.make ~name:"domains 1 vs 2..4: same Loc-RIBs and FIBs"
    ~count:8
    QCheck2.Gen.(
      quad (int_range 0 2) (int_range 8 20) (int_range 1 10_000)
        (int_range 2 4))
    (fun (kind_ix, n, seed, domains) ->
      let kind =
        [| Topology.Scale_free; Topology.Ring; Topology.Grid |].(kind_ix)
      in
      let topo = Topology.make ~seed kind ~n in
      let converged d =
        let net = Net.create ~domains:d topo in
        Net.establish net;
        Net.originate net 0;
        ignore (Net.converge ~what:"announce" net);
        List.init n (fun i ->
            (Net.loc_rib_fingerprint net i, Net.fib_fingerprint net i))
      in
      converged 1 = converged domains)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "topo"
    [ ( "topology",
        [ Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
          Alcotest.test_case "generators connected" `Quick
            test_generators_connected;
          Alcotest.test_case "scale-free determinism" `Quick
            test_generator_determinism ] );
      ( "net",
        [ Alcotest.test_case "clique convergence" `Quick
            test_clique_convergence;
          Alcotest.test_case "withdraw re-convergence" `Quick
            test_withdraw_reconvergence;
          Alcotest.test_case "BA-16 deterministic" `Quick
            test_ba16_deterministic ] );
      ( "scenarios",
        [ Alcotest.test_case "scenario 11 on a ring" `Quick
            test_scenario11_ring;
          Alcotest.test_case "scenario 12 path hunting (BA-16)" `Quick
            test_scenario12_ba16_path_hunting;
          Alcotest.test_case "scenario 12 partition (line)" `Quick
            test_scenario12_partition;
          Alcotest.test_case "scenario 15 vs 11 (BA-40)" `Quick
            test_scenario15_matches_11 ] );
      ( "gao-rexford",
        [ Alcotest.test_case "tiers and relations" `Quick
            test_gao_rexford_tiers;
          Alcotest.test_case "valley-free line" `Quick
            test_gao_rexford_valley_free;
          Alcotest.test_case "oracle agreement" `Quick
            test_gao_rexford_oracle_agrees ] );
      ( "router",
        [ Alcotest.test_case "duplicate attach rejected" `Quick
            test_duplicate_attach_rejected ] );
      ( "partition",
        [ Alcotest.test_case "greedy assignment" `Quick test_partition_assign;
          Alcotest.test_case "cut edges" `Quick test_partition_cut_edges ] );
      ( "multi-domain",
        List.map QCheck_alcotest.to_alcotest [ prop_domains_equivalent ] ) ]
