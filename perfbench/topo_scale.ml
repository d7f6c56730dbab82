(* Workload [topo-scale]: scenario 15 on a seeded Barabási–Albert graph
   (Gao–Rexford policies, Pentium III cost model) split over two
   simulation domains.  It is the only workload on [Pengine] (windows,
   barrier, mailboxes) and cross-domain channels.  Its thousands of
   routers each hold a one-prefix table, so engine heap events and the
   costed scheduler dominate, and a full-table RIB/FIB change should
   move nothing here. *)

module Arch = Bgp_router.Arch
module Net = Bgp_topo.Net
module Topology = Bgp_topo.Topology
module Topo_bench = Bgp_topo.Topo_bench
module Gao_rexford = Bgp_topo.Gao_rexford
module I = Bgp_route.Attrs.Interned

type size = { nodes : int }

let full = { nodes = 5_000 }
let toy = { nodes = 200 }

let arch = Arch.pentium3
let domains = 2
let kind = Topology.Scale_free
let timeout = 3600.0

(* ------------------------------------------------------------------ *)
(* Untraced: Topo_bench.run_scale, repeated                            *)
(* ------------------------------------------------------------------ *)

type run = { r : Topo_bench.scale_run; setup_s : float }

let scale_run ~seed size =
  let t0 = Probe.now_ns () in
  let r =
    Topo_bench.run_scale ~arch ~mode:Net.Gao_rexford ~seed ~domains ~timeout
      ~kind ~n:size.nodes ()
  in
  (* Everything outside establish -> withdraw convergence: graph
     generation, partitioning and [Net.create]. *)
  { r; setup_s = Probe.seconds_since t0 -. r.Topo_bench.sc_wall_s }

(* A run fails every node when the oracle rejects it or when its
   converged state differs from the first run's for the same seed. *)
let failed_nodes ~first size run =
  if run.r.Topo_bench.sc_verified = Ok ()
     && run.r.Topo_bench.sc_fingerprint = first.r.Topo_bench.sc_fingerprint
  then 0
  else size.nodes

let run_untraced ~seed ~seconds size =
  let t0 = Probe.now_ns () in
  let rec loop acc =
    let acc = scale_run ~seed size :: acc in
    if Probe.seconds_since t0 >= seconds then List.rev acc else loop acc
  in
  let runs = loop [] in
  let first = List.hd runs in
  let med f = Probe.median (List.map f runs) in
  let events_s run = Topo_bench.sc_events_per_sec run.r in
  { Probe.attempted = List.length runs * size.nodes;
    failed = List.fold_left (fun a run -> a + failed_nodes ~first size run) 0 runs;
    metrics =
      [ ("throughput", med events_s); ("setup_s", med (fun run -> run.setup_s));
        ("topo_events_s", med events_s) ];
    fingerprint = first.r.Topo_bench.sc_fingerprint;
    notes =
      List.map
        (fun run ->
          Printf.sprintf
            "topo-scale n=%d domains=%d: %d events, %.0f events/s, setup %.3f s, \
             fingerprint %s"
            size.nodes domains (Topo_bench.sc_events run.r) (events_s run)
            run.setup_s
            (String.sub run.r.Topo_bench.sc_fingerprint 0 16))
        runs }

(* ------------------------------------------------------------------ *)
(* Traced: the same episode driven call by call                        *)
(* ------------------------------------------------------------------ *)

(* The digest [run_scale] takes after the announce converged. *)
let fingerprint net n =
  let b = Buffer.create (64 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Net.loc_rib_fingerprint net i);
    Buffer.add_char b '\n';
    Buffer.add_string b (Net.fib_fingerprint net i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_traced ~seed size =
  let n = size.nodes in
  let plain = scale_run ~seed size in
  let spans = Probe.spans ~process:"topo-scale" in
  I.clear ();
  let topo = Topology.make ~seed kind ~n in
  let net = Net.create ~arch ~mode:Net.Gao_rexford ~domains topo in
  let step name f =
    let t0 = Probe.now_ns () in
    let x = f () in
    let t1 = Probe.now_ns () in
    Probe.span spans ~name ~id:0 ~parent:"episode" ~start:t0 ~stop:t1;
    (x, float_of_int (t1 - t0) *. 1e-9)
  in
  let t0 = Probe.now_ns () in
  let (), establish_s = step "net.establish" (fun () -> Net.establish ~timeout net) in
  let _, announce_s =
    step "net.announce" (fun () ->
        Net.originate net 0;
        Net.converge ~timeout ~what:"announce convergence" net)
  in
  (* Oracle, off the clock: reachability is the valley-free fixed point. *)
  let expected = Gao_rexford.reachable ~n ~edges:topo.Topology.edges ~origin:0 in
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    if Net.reachability net i 0 <> expected.(i) then incr wrong
  done;
  let fp = fingerprint net n in
  let _, withdraw_s =
    step "net.withdraw" (fun () ->
        Net.withdraw_origin net 0;
        Net.converge ~timeout ~what:"withdraw convergence" net)
  in
  (* Like [sc_wall_s]: establish through withdraw, oracle included. *)
  let traced_wall = Probe.seconds_since t0 in
  let events = Array.init domains (Net.events_of_domain net) in
  let total = Array.fold_left ( + ) 0 events in
  let busiest = Array.fold_left max 0 events in
  let arena = I.stats () in
  let path = Probe.write_spans spans "topo-scale" in
  { Probe.attempted = 2 * n;
    failed =
      failed_nodes ~first:plain size plain
      + (if fp = plain.r.Topo_bench.sc_fingerprint then !wrong else n);
    metrics =
      [ ("topo_events_s", Topo_bench.sc_events_per_sec plain.r);
        ("arena.hit_ratio", I.hit_rate arena);
        ("arena.live_sets", float_of_int arena.I.live);
        ("sim.events", float_of_int total);
        ("sim.domain_imbalance",
         float_of_int busiest /. (float_of_int total /. float_of_int domains));
        ("topo.establish_s", establish_s);
        ("topo.announce_s", announce_s);
        ("topo.withdraw_s", withdraw_s);
        ("topo.updates_per_node", Probe.ratio (Net.total_updates net) n);
        ("trace.overhead_pct",
         100.0 *. ((traced_wall /. plain.r.Topo_bench.sc_wall_s) -. 1.0)) ];
    fingerprint = fp;
    notes =
      [ Printf.sprintf
          "topo-scale n=%d: establish %.3f s, announce %.3f s, withdraw %.3f s, \
           %d events; spans in %s"
          n establish_s announce_s withdraw_s total path ] }

let run ~seed ~seconds ~trace size =
  if trace then run_traced ~seed size else run_untraced ~seed ~seconds size
