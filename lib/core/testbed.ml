module Engine = Bgp_engine.Engine
module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Channel = Bgp_netsim.Channel
module Event_loop = Bgp_tcp.Event_loop
module Tcp_link = Bgp_tcp.Tcp_link
module Router = Bgp_router.Router
module Speaker = Bgp_speaker.Speaker
module Peer = Bgp_route.Peer
module Ipv4 = Bgp_addr.Ipv4

type mode = Sim | Live

type side = {
  speaker : Speaker.t;
  peer : Peer.t;
  sp_end : Link.t;
  rt_end : Link.t;
}

type t = { clock : Clock.t; router : Router.t; sides : side array; timeout : float }

(* What a run needs from its world: a clock, a way to mint
   speaker<->router transport pairs, and a release of whatever the
   pairs hold.  Everything built on it is transport-blind, so the same
   script runs simulated or over loopback TCP. *)
let make_env = function
  | Sim ->
    let engine = Engine.create () in
    Engine.set_event_limit engine 500_000_000;
    ( Clock.of_engine engine,
      (fun () ->
        let ch = Channel.create engine () in
        (Channel.endpoint ch Channel.A, Channel.endpoint ch Channel.B)),
      fun () -> () )
  | Live ->
    let loop = Event_loop.create () in
    let pairs = ref [] in
    ( Event_loop.clock loop,
      (fun () ->
        let p = Tcp_link.pair loop in
        pairs := p :: !pairs;
        (p.Tcp_link.connector, p.Tcp_link.listener)),
      fun () ->
        List.iter (fun p -> p.Tcp_link.dispose ()) !pairs;
        Event_loop.stop_watching_all loop )

let with_rig ?mrai ?damping ?tracer ?trace_process ?max_prefixes ?restart_delay
    ?cross_traffic mode ~timeout ~speakers arch f =
  let clock, new_link, dispose = make_env mode in
  Fun.protect ~finally:dispose @@ fun () ->
  let router =
    Router.create ?mrai ?damping ?tracer ?trace_process clock arch
      ~local_asn:(Bgp_route.Asn.of_int 65000)
      ~router_id:(Ipv4.of_string_exn "10.255.0.1")
  in
  let links = Array.init speakers (fun _ -> new_link ()) in
  let peers =
    Array.mapi
      (fun i (_, rt_end) ->
        let asn = Bgp_route.Asn.of_int (65001 + i) in
        let addr = Ipv4.of_octets 192 0 2 (i + 1) in
        let peer = Peer.make ~id:i ~asn ~router_id:addr ~addr in
        if i = 0 then
          Router.attach_peer ?max_prefixes ?restart_delay router ~peer
            ~link:rt_end
        else Router.attach_peer router ~peer ~link:rt_end;
        peer)
      links
  in
  let sides =
    Array.map2
      (fun peer (sp_end, rt_end) ->
        { speaker =
            Speaker.create clock ~asn:peer.Peer.asn ~router_id:peer.Peer.addr
              ~link:sp_end;
          peer; sp_end; rt_end })
      peers links
  in
  Option.iter (Router.set_cross_traffic router) cross_traffic;
  f { clock; router; sides; timeout }

let attrs side ~path_len =
  Bgp_speaker.Workload.attrs ~speaker_asn:side.peer.Peer.asn
    ~next_hop:side.peer.Peer.addr ~path_len ()

(* Advance the clock in steps until [cond] holds.  Recurring protocol
   timers (keepalives) keep the event queue alive forever, so "run to
   empty" is not an option.  On a simulated clock each [Clock.run]
   consumes its whole window regardless of [cond] (preserving exact
   event ordering); on a live clock it returns as soon as [cond]
   holds. *)
let wait t ~what cond =
  let deadline = Clock.now t.clock +. t.timeout in
  let rec go step =
    if cond () then ()
    else if Clock.now t.clock >= deadline then
      failwith
        (Printf.sprintf "Testbed: timed out after %.0fs waiting for %s"
           t.timeout what)
    else begin
      ignore (Clock.run t.clock ~cond ~step);
      (* Exponentially growing step bounded at 2s keeps polling overhead
         negligible for slow architectures without hurting precision:
         measurements use event timestamps, not the polling grid. *)
      go (Float.min 2.0 (step *. 1.5))
    end
  in
  go 0.01

let establish t sides =
  List.iter (fun s -> Speaker.start s.speaker) sides;
  wait t ~what:"session establishment" (fun () ->
      List.for_all (fun s -> Speaker.established s.speaker) sides)

let router_done t n () =
  (Router.counters t.router).Router.transactions >= n && Router.idle t.router

type phase = {
  transactions : int;
  seconds : float;
  stage_stats : Bgp_pipeline.Pipeline.stage_stat list;
  msgs_rx : int;
  msgs_tx : int;
  metrics : Bgp_stats.Metrics.t;
}

let snapshot t =
  let c = Router.counters t.router in
  { transactions = c.Router.transactions;
    seconds =
      (match c.Router.first_work_at, c.Router.last_transaction_at with
      | Some t0, Some t1 when t1 > t0 -> t1 -. t0
      | _ -> 0.0);
    stage_stats = Router.stage_stats t.router;
    msgs_rx = c.Router.msgs_rx; msgs_tx = c.Router.msgs_tx;
    metrics = Bgp_stats.Metrics.freeze (Router.metrics t.router) }

let phase t ?(what = "phase") ?(until = fun () -> true) start =
  Router.reset_counters t.router;
  start ();
  wait t ~what until;
  snapshot t

let tps p =
  if p.seconds > 0.0 then float_of_int p.transactions /. p.seconds else 0.0
