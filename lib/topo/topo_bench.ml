module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Json = Bgp_stats.Json

let count_true = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

let sum_counters net n f =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f (Router.counters (Net.router net i))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Scenarios 11 and 15: single-origin runs                            *)
(* ------------------------------------------------------------------ *)

type scale_run = {
  sc_kind : Topology.kind;
  sc_n : int;
  sc_seed : int;
  sc_mode : Net.policy_mode;
  sc_arch : string;
  sc_domains : int;
  sc_edges : int;
  sc_cut_links : int;
  sc_domain_sizes : int array;
  sc_announce_s : float;  (* simulated convergence time *)
  sc_withdraw_s : float;
  sc_announce_updates : int;  (* UPDATEs received network-wide *)
  sc_withdraw_updates : int;
  sc_msgs_tx : int;  (* messages sent over the whole run *)
  sc_wall_s : float;  (* wall clock, establish through withdraw *)
  sc_domain_events : int array;  (* dispatched per domain *)
  sc_reached : int;
  sc_fingerprint : string;  (* digest over all Loc-RIBs and FIBs *)
  sc_verified : (unit, string) result;
}

let sc_events r = Array.fold_left ( + ) 0 r.sc_domain_events

let sc_events_per_sec r =
  if r.sc_wall_s <= 0.0 then 0.0
  else float_of_int (sc_events r) /. r.sc_wall_s

let first_node ~n p =
  let rec go i = if i >= n then None else if p i then Some i else go (i + 1) in
  go 0

(* The single-origin episode of scenarios 11 and 15: establish,
   announce from vertex 0, converge, check reachability against the
   policy oracle, fingerprint every node's Loc-RIB and FIB, withdraw,
   converge, then check that no node still holds the route.
   [sc_wall_s] ends at the withdraw convergence, before the last check,
   so scale throughput measures the episode alone.  The fingerprint is
   what the domain-count equivalence gate compares: same graph,
   different [domains], same digest.  Unlike scenario 12 this never
   goes O(n^2): verification is reachability of the one origin.

   Default policies are Gao-Rexford, not Transit: valley-free export
   bounds withdrawal path hunting (and is the realistic model for an
   AS-level graph).  Under accept-all Transit a BA graph's withdrawal
   phase explores alternate paths combinatorially — ~500k events at
   n=100 and growing fast — so Transit at scale is a measurement of
   path hunting, not of the engine. *)
let run_scale ?(arch = Arch.pentium3) ?(mode = Net.Gao_rexford) ?(seed = 42)
    ?(domains = 1) ?(timeout = 3600.) ?tracer ~kind ~n () =
  let topo = Topology.make ~seed kind ~n in
  let net =
    Net.create ~arch ~mode ~domains ?tracer
      ~trace_prefix:(Printf.sprintf "%s-%d" (Topology.kind_to_string kind) n)
      topo
  in
  let wall0 = Unix.gettimeofday () in
  Net.establish ~timeout net;
  let u0 = Net.total_updates net in
  Net.originate net 0;
  let announce_s = Net.converge ~timeout ~what:"announce convergence" net in
  let u1 = Net.total_updates net in
  let expected =
    match mode with
    | Net.Transit -> Array.make n true
    | Net.Gao_rexford ->
      Gao_rexford.reachable ~n ~edges:topo.Topology.edges ~origin:0
  in
  let got = Array.init n (fun i -> Net.reachability net i 0) in
  let misrouted = first_node ~n (fun i -> got.(i) <> expected.(i)) in
  let fingerprint =
    let ctx = Buffer.create (64 * n) in
    for i = 0 to n - 1 do
      Buffer.add_string ctx (Net.loc_rib_fingerprint net i);
      Buffer.add_char ctx '\n';
      Buffer.add_string ctx (Net.fib_fingerprint net i);
      Buffer.add_char ctx '\n'
    done;
    Digest.to_hex (Digest.string (Buffer.contents ctx))
  in
  Net.withdraw_origin net 0;
  let withdraw_s = Net.converge ~timeout ~what:"withdraw convergence" net in
  let u2 = Net.total_updates net in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let verified =
    match misrouted with
    | Some i ->
      Error
        (Printf.sprintf
           "node %d's reachability disagrees with the policy oracle" i)
    | None -> (
      match first_node ~n (fun i -> i > 0 && Net.reachability net i 0) with
      | Some i ->
        Error (Printf.sprintf "node %d still holds the route post-withdraw" i)
      | None -> Ok ())
  in
  let part = Array.init n (fun i -> Net.partition_of net i) in
  { sc_kind = kind; sc_n = n; sc_seed = seed; sc_mode = mode;
    sc_arch = arch.Arch.name; sc_domains = domains;
    sc_edges = Topology.edge_count topo; sc_cut_links = Net.cut_links net;
    sc_domain_sizes = Partition.sizes part ~parts:domains;
    sc_announce_s = announce_s; sc_withdraw_s = withdraw_s;
    sc_announce_updates = u1 - u0; sc_withdraw_updates = u2 - u1;
    sc_msgs_tx = sum_counters net n (fun k -> k.Router.msgs_tx);
    sc_wall_s = wall_s;
    sc_domain_events =
      Array.init domains (fun d -> Net.events_of_domain net d);
    sc_reached = count_true got; sc_fingerprint = fingerprint;
    sc_verified = verified }

(* ------------------------------------------------------------------ *)
(* Scenario 12: link failure                                           *)
(* ------------------------------------------------------------------ *)

type link_failure_run = {
  lf_kind : Topology.kind;
  lf_n : int;
  lf_seed : int;
  lf_mode : Net.policy_mode;
  lf_arch : string;
  lf_cut_u : int;
  lf_cut_v : int;
  lf_partitioned : bool;
  lf_baseline_s : float;
  lf_heal_s : float;
  lf_affected : int;
  lf_max_explored : int;
  lf_mean_explored : float;
  lf_withdrawn_rx : int;
  lf_verified : (unit, string) result;
}

let components ~n ~edges =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let comp = Array.make n (-1) in
  let label = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let q = Queue.create () in
      Queue.add v q;
      comp.(v) <- !label;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        List.iter
          (fun y ->
            if comp.(y) < 0 then begin
              comp.(y) <- !label;
              Queue.add y q
            end)
          adj.(x)
      done;
      incr label
    end
  done;
  comp

let run_link_failure ?(mode = Net.Transit) ?(seed = 42) ?cut ?tracer ~kind ~n
    () =
  let arch = Arch.pentium3 in
  let topo = Topology.make ~seed kind ~n in
  let edges = topo.Topology.edges in
  let without e = List.filter (fun e' -> e' <> e) edges in
  let connected_without e =
    Array.for_all (fun c -> c = 0) (components ~n ~edges:(without e))
  in
  let cut_edge =
    match cut with
    | Some (u, v) ->
      let u, v = if u < v then (u, v) else (v, u) in
      if not (Topology.is_edge topo u v) then
        invalid_arg (Printf.sprintf "Topo_bench: no edge %d-%d to cut" u v);
      (u, v)
    | None -> (
      (* Prefer a cut the graph survives, so the run measures healing;
         on trees every edge partitions and we measure the flush. *)
      match List.find_opt connected_without edges with
      | Some e -> e
      | None -> List.hd edges)
  in
  let partitioned = not (connected_without cut_edge) in
  let net =
    Net.create ~arch ~mode ?tracer
      ~trace_prefix:
        (Printf.sprintf "cut-%s-%d" (Topology.kind_to_string kind) n)
      topo
  in
  Net.establish net;
  Net.originate_all net;
  let baseline_s = Net.converge ~what:"baseline convergence" net in
  let w0 = sum_counters net n (fun k -> k.Router.withdrawn_rx) in
  Net.reset_exploration net;
  let cu, cv = cut_edge in
  Net.cut_link net cu cv;
  let heal_s = Net.converge ~what:"post-cut re-convergence" net in
  let w1 = sum_counters net n (fun k -> k.Router.withdrawn_rx) in
  let affected = Hashtbl.create 17 in
  let counts = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Net.explored_paths net i (Net.origin_prefix net j) in
      if c > 0 then begin
        Hashtbl.replace affected j ();
        counts := c :: !counts
      end
    done
  done;
  let max_explored = List.fold_left max 0 !counts in
  let mean_explored =
    match !counts with
    | [] -> 0.0
    | cs ->
      float_of_int (List.fold_left ( + ) 0 cs) /. float_of_int (List.length cs)
  in
  let reduced = without cut_edge in
  let comp = components ~n ~edges:reduced in
  let expected j =
    match mode with
    | Net.Transit -> Array.init n (fun i -> comp.(i) = comp.(j))
    | Net.Gao_rexford -> Gao_rexford.reachable ~n ~edges:reduced ~origin:j
  in
  let verified =
    let bad = ref None in
    for j = 0 to n - 1 do
      if !bad = None then begin
        let exp = expected j in
        for i = 0 to n - 1 do
          if !bad = None && Net.reachability net i j <> exp.(i) then
            bad := Some (i, j)
        done
      end
    done;
    match !bad with
    | Some (i, j) ->
      Error
        (Printf.sprintf
           "node %d's route to node %d's prefix disagrees with the post-cut \
            oracle"
           i j)
    | None -> Ok ()
  in
  { lf_kind = kind; lf_n = n; lf_seed = seed; lf_mode = mode;
    lf_arch = arch.Arch.name; lf_cut_u = cu; lf_cut_v = cv;
    lf_partitioned = partitioned; lf_baseline_s = baseline_s;
    lf_heal_s = heal_s; lf_affected = Hashtbl.length affected;
    lf_max_explored = max_explored; lf_mean_explored = mean_explored;
    lf_withdrawn_rx = w1 - w0; lf_verified = verified }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let verified_str = function Ok () -> "ok" | Error e -> "FAIL: " ^ e

let render_convergence_runs runs =
  let b = Buffer.create 1024 in
  (match runs with
  | [] -> Buffer.add_string b "no runs\n"
  | r0 :: _ ->
    Buffer.add_string b
      (Printf.sprintf
         "Scenario 11: single-origin convergence — %s topology, %s policies, \
          %s\n"
         (Topology.kind_to_string r0.sc_kind)
         (Net.policy_mode_to_string r0.sc_mode)
         r0.sc_arch);
    Buffer.add_string b
      "    n  edges  announce(s)  withdraw(s)  upd(ann)  upd(wd)  reached  \
       check\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%5d  %5d  %11.6f  %11.6f  %8d  %7d  %7d  %s\n"
             r.sc_n r.sc_edges r.sc_announce_s r.sc_withdraw_s
             r.sc_announce_updates r.sc_withdraw_updates r.sc_reached
             (verified_str r.sc_verified)))
      runs);
  Buffer.contents b

let render_link_failure r =
  String.concat "\n"
    [ Printf.sprintf
        "Scenario 12: link failure — %s topology, n=%d, %s policies, %s"
        (Topology.kind_to_string r.lf_kind)
        r.lf_n
        (Net.policy_mode_to_string r.lf_mode)
        r.lf_arch;
      Printf.sprintf "  cut edge            %d-%d%s" r.lf_cut_u r.lf_cut_v
        (if r.lf_partitioned then "  (partitions the graph)" else "");
      Printf.sprintf "  baseline convergence %11.6f s" r.lf_baseline_s;
      Printf.sprintf "  re-convergence       %11.6f s" r.lf_heal_s;
      Printf.sprintf "  affected prefixes    %d" r.lf_affected;
      Printf.sprintf "  paths explored       max %d, mean %.2f"
        r.lf_max_explored r.lf_mean_explored;
      Printf.sprintf "  withdrawals received %d" r.lf_withdrawn_rx;
      Printf.sprintf "  check                %s" (verified_str r.lf_verified);
      "" ]

let result_fields = function
  | Ok () -> [ ("verified", Json.Bool true) ]
  | Error e -> [ ("verified", Json.Bool false); ("error", Json.Str e) ]

let convergence_run_json r =
  Json.Obj
    ([ ("n", Json.Int r.sc_n);
       ("edges", Json.Int r.sc_edges);
       ("announce_s", Json.Float r.sc_announce_s);
       ("withdraw_s", Json.Float r.sc_withdraw_s);
       ("announce_updates", Json.Int r.sc_announce_updates);
       ("withdraw_updates", Json.Int r.sc_withdraw_updates);
       ("msgs_tx", Json.Int r.sc_msgs_tx);
       ("reached", Json.Int r.sc_reached) ]
    @ result_fields r.sc_verified)

let convergence_runs_json runs =
  let header =
    match runs with
    | [] -> []
    | r :: _ ->
      [ ("kind", Json.Str (Topology.kind_to_string r.sc_kind));
        ("seed", Json.Int r.sc_seed);
        ("mode", Json.Str (Net.policy_mode_to_string r.sc_mode));
        ("arch", Json.Str r.sc_arch) ]
  in
  Json.Obj
    ([ ("scenario", Json.Int 11); ("name", Json.Str "topo-convergence") ]
    @ header
    @ [ ("runs", Json.List (List.map convergence_run_json runs)) ])

let link_failure_json r =
  Json.Obj
    ([ ("scenario", Json.Int 12);
       ("name", Json.Str "topo-link-failure");
       ("kind", Json.Str (Topology.kind_to_string r.lf_kind));
       ("n", Json.Int r.lf_n);
       ("seed", Json.Int r.lf_seed);
       ("mode", Json.Str (Net.policy_mode_to_string r.lf_mode));
       ("arch", Json.Str r.lf_arch);
       ("cut", Json.List [ Json.Int r.lf_cut_u; Json.Int r.lf_cut_v ]);
       ("partitioned", Json.Bool r.lf_partitioned);
       ("baseline_s", Json.Float r.lf_baseline_s);
       ("heal_s", Json.Float r.lf_heal_s);
       ("affected_prefixes", Json.Int r.lf_affected);
       ("max_explored", Json.Int r.lf_max_explored);
       ("mean_explored", Json.Float r.lf_mean_explored);
       ("withdrawn_rx", Json.Int r.lf_withdrawn_rx) ]
    @ result_fields r.lf_verified)

let render_scale_runs runs =
  let b = Buffer.create 1024 in
  (match runs with
  | [] -> Buffer.add_string b "no runs\n"
  | r0 :: _ ->
    Buffer.add_string b
      (Printf.sprintf
         "Scenario 15: partitioned scale — %s topology, seed %d\n"
         (Topology.kind_to_string r0.sc_kind)
         r0.sc_seed);
    Buffer.add_string b
      "    n  domains  edges    cut  announce(s)  withdraw(s)   wall(s)  \
       events  ev/s(wall)  fingerprint        check\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf
             "%5d  %7d  %5d  %5d  %11.6f  %11.6f  %8.2f  %7d  %10.0f  %s  %s\n"
             r.sc_n r.sc_domains r.sc_edges r.sc_cut_links r.sc_announce_s
             r.sc_withdraw_s r.sc_wall_s (sc_events r) (sc_events_per_sec r)
             (String.sub r.sc_fingerprint 0 16)
             (verified_str r.sc_verified)))
      runs);
  Buffer.contents b

let scale_run_json r =
  Json.Obj
    ([ ("n", Json.Int r.sc_n);
       ("domains", Json.Int r.sc_domains);
       ("edges", Json.Int r.sc_edges);
       ("cut_links", Json.Int r.sc_cut_links);
       ("domain_sizes",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Int s) r.sc_domain_sizes)));
       ("announce_s", Json.Float r.sc_announce_s);
       ("withdraw_s", Json.Float r.sc_withdraw_s);
       ("wall_s", Json.Float r.sc_wall_s);
       ("events", Json.Int (sc_events r));
       ("events_per_sec_wall", Json.Float (sc_events_per_sec r));
       ("domain_events",
        Json.List
          (Array.to_list (Array.map (fun e -> Json.Int e) r.sc_domain_events)));
       ("reached", Json.Int r.sc_reached);
       ("fingerprint", Json.Str r.sc_fingerprint) ]
    @ result_fields r.sc_verified)

let scale_runs_json runs =
  let header =
    match runs with
    | [] -> []
    | r :: _ ->
      [ ("kind", Json.Str (Topology.kind_to_string r.sc_kind));
        ("seed", Json.Int r.sc_seed) ]
  in
  Json.Obj
    ([ ("scenario", Json.Int 15); ("name", Json.Str "topo-scale") ]
    @ header
    @ [ ("runs", Json.List (List.map scale_run_json runs)) ])
