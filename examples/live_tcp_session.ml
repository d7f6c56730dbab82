(* Live TCP session: the same protocol engine used by the benchmark,
   speaking real BGP over a real loopback TCP connection.

   One process hosts both ends: a passive "router" session on a
   Tcp_link listening on 127.0.0.1 and an active "speaker" session on a
   Tcp_link that connects, brings the session to Established, transfers
   a routing table, withdraws half of it, and shuts down cleanly with a
   CEASE.

   Run with:  dune exec examples/live_tcp_session.exe [port] *)

module Fsm = Bgp_fsm.Fsm
module Session = Bgp_fsm.Session
module Msg = Bgp_wire.Msg
module Tcp_link = Bgp_tcp.Tcp_link
module Loop = Bgp_tcp.Event_loop
module Clock = Bgp_engine.Clock

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int


let () =
  let port =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1)
    else 17900 + (Unix.getpid () mod 100)
  in
  let loop = Loop.create () in
  let clock = Loop.clock loop in

  (* The "router" side keeps a live view of what it has been told. *)
  let routes = Hashtbl.create 1024 in
  let router_hooks =
    { Session.null_hooks with
      Session.on_update =
        (fun u ->
          List.iter (Hashtbl.remove routes) u.Msg.withdrawn;
          Option.iter
            (fun attrs -> List.iter (fun p -> Hashtbl.replace routes p attrs) u.Msg.nlri)
            u.Msg.attrs);
      on_established = (fun () -> Format.printf "[router ] session Established@.");
      on_down = (fun r -> Format.printf "[router ] session down: %s@." r) }
  in
  let speaker_hooks =
    { Session.null_hooks with
      Session.on_established = (fun () -> Format.printf "[speaker] session Established@.") }
  in
  let router_ep = Tcp_link.listen loop ~port in
  let speaker_ep = Tcp_link.connect loop ~port in
  let router =
    Session.create
      { (Fsm.default_config ~asn:(asn 65000) ~router_id:(ip "10.255.0.1")) with
        Fsm.passive = true }
      clock router_ep.Tcp_link.link router_hooks
  in
  let speaker =
    Session.create
      (Fsm.default_config ~asn:(asn 65001) ~router_id:(ip "192.0.2.1"))
      clock speaker_ep.Tcp_link.link speaker_hooks
  in
  Format.printf "listening on 127.0.0.1:%d ...@." port;
  Session.start router;
  Session.start speaker;
  let both_up () =
    Session.state router = Fsm.Established
    && Session.state speaker = Fsm.Established
  in
  if not (Clock.run clock ~cond:both_up ~step:10.0) then begin
    prerr_endline "session failed to establish";
    exit 1
  end;

  (* Transfer a 5000-prefix table in 500-prefix UPDATEs. *)
  let table = Bgp_addr.Prefix_gen.table ~seed:42 ~n:5_000 () in
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "127.0.0.1") ~path_len:3 ()
  in
  List.iter
    (fun chunk -> ignore (Session.send speaker (Msg.announcement attrs chunk)))
    (Bgp_speaker.Workload.chunk 500 table);
  ignore
    (Clock.run clock ~cond:(fun () -> Hashtbl.length routes = 5_000) ~step:10.0);
  Format.printf "[router ] learned %d routes over real TCP@." (Hashtbl.length routes);

  (* Withdraw the first half. *)
  let half = Array.sub table 0 2_500 in
  List.iter
    (fun chunk -> ignore (Session.send speaker (Msg.withdrawal chunk)))
    (Bgp_speaker.Workload.chunk 500 half);
  ignore
    (Clock.run clock ~cond:(fun () -> Hashtbl.length routes = 2_500) ~step:10.0);
  Format.printf "[router ] %d routes after withdrawals@." (Hashtbl.length routes);

  (* Clean shutdown: the speaker sends CEASE. *)
  Session.stop speaker;
  ignore
    (Clock.run clock ~cond:(fun () -> Session.state router = Fsm.Idle) ~step:5.0);
  speaker_ep.dispose ();
  router_ep.dispose ();
  Format.printf "done.@."
