module Clock = Bgp_engine.Clock
module Pengine = Bgp_sim.Pengine
module Tracer = Bgp_trace.Tracer
module Channel = Bgp_netsim.Channel
module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Rib_manager = Bgp_rib.Rib_manager
module Loc_rib = Bgp_rib.Loc_rib
module Fib = Bgp_fib.Fib
module Peer = Bgp_route.Peer
module Asn = Bgp_route.Asn
module Attrs = Bgp_route.Attrs
module Route = Bgp_route.Route
module Ipv4 = Bgp_addr.Ipv4
module Prefix = Bgp_addr.Prefix
module Fsm = Bgp_fsm.Fsm

type policy_mode = Transit | Gao_rexford

let policy_mode_to_string = function
  | Transit -> "transit"
  | Gao_rexford -> "gao-rexford"

type node = {
  asn : Asn.t;
  addr : Ipv4.t;
  router : Router.t;
  origin : Prefix.t;
  mutable peer_recs : (int * Peer.t) list;
      (* neighbor vertex -> the Peer record naming it on this router *)
  explored : (Prefix.t, int) Hashtbl.t;
}

type t = {
  pe : Pengine.t;
  part : int array;  (* vertex -> simulation domain *)
  cut_links : int;   (* edges whose endpoints straddle domains *)
  topo : Topology.t;
  mode : policy_mode;
  nodes : node array;
  links : (int * int * Channel.t) list;
}

(* Up to 1023 routers the classic RFC 1930 private block [64512 + i];
   beyond it (10k-AS scale runs) plain ASNs [1 .. n], still 16-bit.
   The split keeps every historical scenario's wire bytes identical. *)
let asn_of_index ~n i = Asn.of_int (if n <= 1023 then 64512 + i else i + 1)

let addr_of_index i = Ipv4.of_octets 10 (i lsr 8) (i land 0xff) 1

let create ?(arch = Arch.pentium3) ?(mode = Transit) ?(domains = 1) ?tracer
    ?(trace_prefix = "topo") topo =
  let n = topo.Topology.n in
  if n > 65535 then
    invalid_arg
      (Printf.sprintf "Net.create: %d routers exceed the 16-bit ASN space" n);
  if domains < 1 then invalid_arg "Net.create: domains must be >= 1";
  let pe = Pengine.create ~parts:domains () in
  (* Worker domains intern into their partition's arena shard; the
     calling domain (partition 0) stays on the default shard. *)
  Pengine.set_worker_init pe (fun k -> Attrs.Interned.bind_shard k);
  (match tracer with
  | Some tr when domains > 1 -> Tracer.set_shared tr
  | _ -> ());
  let part =
    if domains = 1 then Array.make n 0
    else Partition.assign topo ~parts:domains
  in
  let prefixes = Bgp_addr.Prefix_gen.table ~seed:topo.Topology.seed ~n () in
  let nodes =
    Array.init n (fun i ->
        let asn = asn_of_index ~n i in
        let addr = addr_of_index i in
        let trace_process =
          if domains = 1 then Printf.sprintf "%s/node-%d" trace_prefix i
          else Printf.sprintf "%s/d%d/node-%d" trace_prefix part.(i) i
        in
        { asn; addr;
          router =
            Router.create ?tracer ~trace_process
              (Clock.of_engine (Pengine.part pe part.(i)))
              arch ~local_asn:asn ~router_id:addr;
          origin = prefixes.(i);
          peer_recs = []; explored = Hashtbl.create 97 })
  in
  Array.iter
    (fun nd ->
      Router.set_route_observer nd.router (fun prefix ->
          let c = Option.value ~default:0 (Hashtbl.find_opt nd.explored prefix) in
          Hashtbl.replace nd.explored prefix (c + 1)))
    nodes;
  let next_id = Array.make n 0 in
  let fresh_id u =
    let id = next_id.(u) in
    next_id.(u) <- id + 1;
    id
  in
  let policies ~self ~neighbor =
    match mode with
    | Transit -> (None, None)
    | Gao_rexford ->
      let rel = Gao_rexford.relation_between ~self ~neighbor in
      (Some (Gao_rexford.import_policy rel),
       Some (Gao_rexford.export_policy rel))
  in
  let links =
    List.map
      (fun (u, v) ->
        let ch =
          Channel.create_cross pe ~part_a:part.(u) ~part_b:part.(v) ()
        in
        let nu = nodes.(u) and nv = nodes.(v) in
        let peer_v =
          Peer.make ~id:(fresh_id u) ~asn:nv.asn ~router_id:nv.addr
            ~addr:nv.addr
        and peer_u =
          Peer.make ~id:(fresh_id v) ~asn:nu.asn ~router_id:nu.addr
            ~addr:nu.addr
        in
        let import_u, export_u = policies ~self:u ~neighbor:v
        and import_v, export_v = policies ~self:v ~neighbor:u in
        (* One session per link: the lower index listens, the higher
           opens, so the FSM never needs §6.8 collision resolution. *)
        Router.attach_peer ?import:import_u ?export:export_u nu.router
          ~peer:peer_v ~link:(Channel.endpoint ch Channel.A);
        Router.attach_peer ~active:true ?import:import_v ?export:export_v
          nv.router ~peer:peer_u ~link:(Channel.endpoint ch Channel.B);
        nu.peer_recs <- (v, peer_v) :: nu.peer_recs;
        nv.peer_recs <- (u, peer_u) :: nv.peer_recs;
        (u, v, ch))
      topo.Topology.edges
  in
  let cut_links =
    List.fold_left
      (fun acc (u, v, _) -> if part.(u) <> part.(v) then acc + 1 else acc)
      0 links
  in
  { pe; part; cut_links; topo; mode; nodes; links }

let partition_of t i = t.part.(i)
let cut_links t = t.cut_links
let events_of_domain t d = Pengine.dispatched t.pe d
let topology t = t.topo
let mode t = t.mode
let size t = Array.length t.nodes
let router t i = t.nodes.(i).router
let origin_prefix t i = t.nodes.(i).origin

let wait_until t ~timeout ~what cond =
  let deadline = Pengine.now t.pe +. timeout in
  (* Run before the first check: a just-injected fault (channel close,
     link cut) breaks quiescence only once its notification event
     fires, so the predicate must never be trusted on a cold queue.
     Exponential polling step, capped: convergence times come from
     event timestamps, not from this grid.  With one domain
     [Pengine.run_until] is exactly [Engine.run ~until]; with more, the
     predicate only runs between windows, when every partition is
     parked and its writes are visible here. *)
  let rec go step =
    Pengine.run_until t.pe (Pengine.now t.pe +. step);
    if cond () then ()
    else if Pengine.now t.pe >= deadline then
      failwith
        (Printf.sprintf "Net: timed out after %.0fs waiting for %s" timeout
           what)
    else go (Float.min 2.0 (step *. 1.5))
  in
  go 0.01

let establish ?(timeout = 600.) t =
  wait_until t ~timeout ~what:"session establishment" (fun () ->
      Array.for_all
        (fun nd ->
          List.for_all
            (fun (_, p) -> Router.session_state nd.router p = Fsm.Established)
            nd.peer_recs)
        t.nodes)

let originate t i = Router.originate t.nodes.(i).router ~prefix:t.nodes.(i).origin

let withdraw_origin t i =
  Router.withdraw_origin t.nodes.(i).router ~prefix:t.nodes.(i).origin

let originate_all t = Array.iteri (fun i _ -> originate t i) t.nodes

let quiescent t =
  Array.for_all (fun nd -> Router.idle nd.router) t.nodes
  && List.for_all (fun (_, _, ch) -> Channel.in_flight ch = 0) t.links

let converge ?(timeout = 600.) ~what t =
  let t0 = Pengine.now t.pe in
  wait_until t ~timeout ~what (fun () -> quiescent t);
  let t_end =
    Array.fold_left
      (fun acc nd ->
        match (Router.counters nd.router).Router.last_transaction_at with
        | Some x when x > acc -> x
        | _ -> acc)
      t0 t.nodes
  in
  t_end -. t0

let cut_link t u v =
  let u, v = if u < v then (u, v) else (v, u) in
  match List.find_opt (fun (a, b, _) -> a = u && b = v) t.links with
  | None -> invalid_arg (Printf.sprintf "Net.cut_link: no edge %d-%d" u v)
  | Some (_, _, ch) ->
    Channel.set_tap ch Channel.A (fun _ -> Channel.Drop);
    Channel.set_tap ch Channel.B (fun _ -> Channel.Drop);
    Channel.close ch

let total_updates t =
  Array.fold_left
    (fun acc nd -> acc + (Router.counters nd.router).Router.updates_rx)
    0 t.nodes

let explored_paths t i prefix =
  Option.value ~default:0 (Hashtbl.find_opt t.nodes.(i).explored prefix)

let reset_exploration t =
  Array.iter (fun nd -> Hashtbl.reset nd.explored) t.nodes

let loc_rib_fingerprint t i =
  let rib = Rib_manager.loc_rib (Router.rib t.nodes.(i).router) in
  let entries =
    Loc_rib.fold
      (fun r acc ->
        let a = Route.attrs r in
        Format.asprintf "%s|%a|%s"
          (Prefix.to_string (Route.prefix r))
          Bgp_route.As_path.pp a.Attrs.as_path
          (Ipv4.to_string a.Attrs.next_hop)
        :: acc)
      rib []
  in
  String.concat "\n" (List.sort compare entries)

let fib_fingerprint t i =
  let entries = ref [] in
  Fib.iter
    (fun prefix nh ->
      entries :=
        Printf.sprintf "%s|%s|%d"
          (Prefix.to_string prefix)
          (Ipv4.to_string nh.Fib.nh_addr)
          nh.Fib.nh_port
        :: !entries)
    (Router.fib t.nodes.(i).router);
  String.concat "\n" (List.sort compare !entries)

let reachability t i j =
  let rib = Rib_manager.loc_rib (Router.rib t.nodes.(i).router) in
  Loc_rib.find rib t.nodes.(j).origin <> None
