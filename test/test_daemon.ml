(* Multi-router daemon tests: the bgpd configuration — routers on the
   unpaced architecture, neighbors attached by link alone and
   identified from their OPEN — in small topologies inside one process.
   Every case runs twice, over simulated channels on a virtual clock
   and over real loopback TCP, checks its behaviour on both, and
   asserts the two transports leave every router with the same Loc-RIB
   fingerprint. *)

module Router = Bgp_router.Router
module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Tcp_link = Bgp_tcp.Tcp_link
module Channel = Bgp_netsim.Channel
module Rib = Bgp_rib.Rib_manager
module Loc_rib = Bgp_rib.Loc_rib
module R = Bgp_route.Route
module As_path = Bgp_route.As_path

let ip = Bgp_addr.Ipv4.of_string_exn
let pfx = Bgp_addr.Prefix.of_string_exn
let asn = Bgp_route.Asn.of_int
let base_port = 43100 + (Unix.getpid () mod 400)

(* A transport: a clock, and a way to open one more connection between
   two routers ([join] returns its passive and active ends). *)
type net = {
  name : string;
  clock : Clock.t;
  join : unit -> Link.t * Link.t;
  dispose : unit -> unit;
}

let sim () =
  let engine = Bgp_engine.Engine.create () in
  { name = "sim"; clock = Clock.of_engine engine;
    join =
      (fun () ->
        let ch = Channel.create engine () in
        (Channel.endpoint ch Channel.A, Channel.endpoint ch Channel.B));
    dispose = ignore }

let next_port = ref base_port

let live () =
  let loop = Bgp_tcp.Event_loop.create () in
  let eps = ref [] in
  { name = "live"; clock = Bgp_tcp.Event_loop.clock loop;
    join =
      (fun () ->
        let port = !next_port in
        incr next_port;
        let l = Tcp_link.listen loop ~port in
        let c = Tcp_link.connect loop ~port in
        eps := l :: c :: !eps;
        (l.Tcp_link.link, c.Tcp_link.link));
    dispose =
      (fun () -> List.iter (fun (ep : Tcp_link.endpoint) -> ep.dispose ()) !eps) }

type node = { router : Router.t; mutable links : (Bgp_route.Peer.t * Link.t) list }

let node ?aggregates net ~as_ id =
  { router =
      Router.create ?aggregates net.clock Bgp_router.Arch.unpaced
        ~local_asn:(asn as_) ~router_id:(ip id);
    links = [] }

(* Peer two nodes as bgpd does: [server] listens, [client] dials, and
   each side attaches the other under a placeholder identity. *)
let connect ?(rr_client = false) net ~server ~client =
  let passive, active = net.join () in
  let attach n ~active ~rr_client link =
    let peer =
      Bgp_route.Peer.make ~id:(List.length n.links)
        ~asn:(Rib.local_asn (Router.rib n.router))
        ~router_id:Bgp_addr.Ipv4.zero ~addr:(ip "127.0.0.1")
    in
    Router.attach_peer ~active ~rr_client n.router ~peer ~link;
    n.links <- (peer, link) :: n.links
  in
  attach server ~active:false ~rr_client passive;
  attach client ~active:true ~rr_client:false active

let established n =
  List.length
    (List.filter
       (fun (p, _) -> Router.session_state n.router p = Bgp_fsm.Fsm.Established)
       n.links)

(* Pump the transport's clock until [cond] holds and every router has
   drained its work. *)
let wait net nodes what cond =
  let ready () = cond () && List.for_all (fun n -> Router.idle n.router) nodes in
  let deadline = Clock.now net.clock +. 10.0 in
  let rec go () =
    if not (ready ()) then
      if Clock.now net.clock >= deadline then
        Alcotest.failf "%s: timed out waiting for %s" net.name what
      else begin
        ignore (Clock.run net.clock ~cond:ready ~step:0.05);
        go ()
      end
  in
  go ()

let loc_rib n = Rib.loc_rib (Router.rib n.router)
let find_route n prefix = Loc_rib.find (loc_rib n) prefix
let fib_size n = Bgp_fib.Fib.size (Router.fib n.router)

let path_asns r =
  List.map Bgp_route.Asn.to_int
    (As_path.to_asn_list (R.attrs r).Bgp_route.Attrs.as_path)

(* Run [case] on both transports; it returns the routers whose Loc-RIBs
   must agree. *)
let on_both_transports case () =
  let fingerprints mk =
    let net = mk () in
    Fun.protect ~finally:net.dispose (fun () ->
        List.map (fun n -> Loc_rib.fingerprint (loc_rib n)) (case net))
  in
  let sim_fps = fingerprints sim in
  Alcotest.(check (list string)) "sim = live Loc-RIB fingerprints" sim_fps
    (fingerprints live)

(* A(65101) -- B(65102) -- C(65103): A listens for B, B for C. *)
let chain ?aggregates_b net =
  let a = node net ~as_:65101 "10.0.0.1" in
  let b = node ?aggregates:aggregates_b net ~as_:65102 "10.0.0.2" in
  let c = node net ~as_:65103 "10.0.0.3" in
  connect net ~server:a ~client:b;
  connect net ~server:b ~client:c;
  wait net [ a; b; c ] "chain to establish" (fun () ->
      established a = 1 && established b = 2 && established c = 1);
  (a, b, c)

let test_propagation_chain net =
  let a, b, c = chain net in
  let p = pfx "198.51.100.0/24" in
  Router.originate a.router ~prefix:p;
  wait net [ a; b; c ] "propagation to C" (fun () -> find_route c p <> None);
  (* B sees path [A]; C sees path [B, A]. *)
  (match find_route b p with
  | Some r -> Alcotest.(check (list int)) "path at B" [ 65101 ] (path_asns r)
  | None -> Alcotest.fail "B missing route");
  (match find_route c p with
  | Some r ->
    Alcotest.(check (list int)) "path at C" [ 65102; 65101 ] (path_asns r);
    (* next hop rewritten at each EBGP hop: C's next hop is B *)
    Alcotest.(check string) "next hop at C" "10.0.0.2"
      (Bgp_addr.Ipv4.to_string (R.attrs r).Bgp_route.Attrs.next_hop)
  | None -> Alcotest.fail "C missing route");
  (* FIBs were updated along the way *)
  Alcotest.(check int) "B fib" 1 (fib_size b);
  Alcotest.(check int) "C fib" 1 (fib_size c);
  (* withdraw at the origin propagates *)
  Router.withdraw_origin a.router ~prefix:p;
  wait net [ a; b; c ] "withdraw to C" (fun () -> find_route c p = None);
  Alcotest.(check int) "C fib empty" 0 (fib_size c);
  [ a; b; c ]

let test_aggregation_at_transit net =
  let aggs =
    [ { Rib.agg_prefix = pfx "198.51.0.0/16"; agg_as_set = true;
        agg_summary_only = true } ]
  in
  let a, b, c = chain ~aggregates_b:aggs net in
  Router.originate a.router ~prefix:(pfx "198.51.100.0/24");
  Router.originate a.router ~prefix:(pfx "198.51.101.0/24");
  (* C hears only B's summary, never the /24s *)
  wait net [ a; b; c ] "summary at C" (fun () ->
      find_route c (pfx "198.51.0.0/16") <> None
      && find_route b (pfx "198.51.101.0/24") <> None);
  Alcotest.(check bool) "specific suppressed" true
    (find_route c (pfx "198.51.100.0/24") = None);
  (match find_route c (pfx "198.51.0.0/16") with
  | Some r ->
    let path = (R.attrs r).Bgp_route.Attrs.as_path in
    (* B prepended itself; the AS_SET carries A *)
    Alcotest.(check bool) "path has B" true (As_path.contains (asn 65102) path);
    Alcotest.(check bool) "as-set has A" true (As_path.contains (asn 65101) path)
  | None -> Alcotest.fail "summary missing");
  [ a; b; c ]

let test_session_loss_withdraws net =
  let a, b, c = chain net in
  let p = pfx "203.0.113.0/24" in
  Router.originate a.router ~prefix:p;
  wait net [ a; b; c ] "route at C" (fun () -> find_route c p <> None);
  (* cut A off entirely: B must withdraw from C *)
  List.iter (fun (_, link) -> link.Link.close ()) a.links;
  wait net [ a; b; c ] "withdraw reaches C" (fun () -> find_route c p = None);
  Alcotest.(check int) "B cleaned up" 0 (Loc_rib.size (loc_rib b));
  [ a; b; c ]

(* IBGP route reflection: three routers in ONE AS.  Clients A and C
   peer only with reflector B; without RFC 4456 their routes would
   never reach each other. *)
let test_ibgp_route_reflection net =
  let mk last = node net ~as_:65200 ("10.1.0." ^ string_of_int last) in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  (* B listens for both and marks both neighbors as clients. *)
  connect ~rr_client:true net ~server:b ~client:a;
  connect ~rr_client:true net ~server:b ~client:c;
  wait net [ a; b; c ] "IBGP sessions to establish" (fun () ->
      established a = 1 && established b = 2 && established c = 1);
  let p = pfx "203.0.113.0/24" in
  Router.originate a.router ~prefix:p;
  wait net [ a; b; c ] "reflection to C" (fun () -> find_route c p <> None);
  (match find_route c p with
  | Some r ->
    let at = R.attrs r in
    (* IBGP end to end: no AS prepending anywhere *)
    Alcotest.(check int) "empty as path" 0
      (As_path.length at.Bgp_route.Attrs.as_path);
    (* the reflector stamped its bookkeeping *)
    Alcotest.(check (option string)) "originator is A" (Some "10.1.0.1")
      (Option.map Bgp_addr.Ipv4.to_string at.Bgp_route.Attrs.originator_id);
    Alcotest.(check (list string)) "cluster list is B" [ "10.1.0.2" ]
      (List.map Bgp_addr.Ipv4.to_string at.Bgp_route.Attrs.cluster_list);
    (* next hop preserved across reflection *)
    Alcotest.(check string) "next hop is A" "10.1.0.1"
      (Bgp_addr.Ipv4.to_string at.Bgp_route.Attrs.next_hop)
  | None -> Alcotest.fail "reflected route missing");
  [ a; b; c ]

let () =
  let case name f = Alcotest.test_case name `Quick (on_both_transports f) in
  Alcotest.run "bgp daemon"
    [ ( "chain",
        [ case "propagation A->B->C" test_propagation_chain;
          case "aggregation at transit" test_aggregation_at_transit;
          case "session loss withdraws" test_session_loss_withdraws;
          case "IBGP route reflection over TCP" test_ibgp_route_reflection
        ] )
    ]
