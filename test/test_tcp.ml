(* Real-socket interop: BGP sessions over loopback TCP in one process,
   driven by the select loop. *)

module Fsm = Bgp_fsm.Fsm
module Session = Bgp_fsm.Session
module Msg = Bgp_wire.Msg
module Clock = Bgp_engine.Clock
module Loop = Bgp_tcp.Event_loop
module Tcp_link = Bgp_tcp.Tcp_link
module Router = Bgp_router.Router

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int
let port_base = 42100 + (Unix.getpid () mod 500)

let attrs =
  Bgp_route.Attrs.make
    ~as_path:(Bgp_route.As_path.of_asns [ asn 65001; asn 7018 ])
    ~next_hop:(ip "127.0.0.1") ()

(* A bare session on one Tcp_link endpoint. *)
let session loop (ep : Tcp_link.endpoint) ~passive ~as_ ~id hooks =
  Session.create
    { (Fsm.default_config ~asn:(asn as_) ~router_id:(ip id)) with Fsm.passive }
    (Loop.clock loop) ep.link hooks

let test_loopback_session () =
  let loop = Loop.create () in
  let port = port_base in
  let received = ref 0 in
  let listener_hooks =
    { Session.null_hooks with
      Session.on_update =
        (fun u -> received := !received + List.length u.Msg.nlri) }
  in
  let lep = Tcp_link.listen loop ~port and cep = Tcp_link.connect loop ~port in
  let listener =
    session loop lep ~passive:true ~as_:65000 ~id:"10.0.0.1" listener_hooks
  in
  let connector =
    session loop cep ~passive:false ~as_:65001 ~id:"10.0.0.2"
      Session.null_hooks
  in
  Session.start listener;
  Session.start connector;
  let both_up () =
    Session.state listener = Fsm.Established
    && Session.state connector = Fsm.Established
  in
  if not (Clock.run (Loop.clock loop) ~cond:both_up ~step:10.0) then
    Alcotest.failf "sessions did not establish (listener %s, connector %s)"
      (Fsm.state_name (Session.state listener))
      (Fsm.state_name (Session.state connector));
  (* push 1000 prefixes in 10 large updates over the real socket *)
  let table = Bgp_addr.Prefix_gen.table ~seed:3 ~n:1000 () in
  List.iter
    (fun chunk -> ignore (Session.send connector (Msg.announcement attrs chunk)))
    (Bgp_speaker.Workload.chunk 100 table);
  let all_received () = !received = 1000 in
  if not (Clock.run (Loop.clock loop) ~cond:all_received ~step:10.0) then
    Alcotest.failf "only %d/1000 prefixes received" !received;
  cep.Tcp_link.dispose ();
  lep.Tcp_link.dispose ()

let test_notification_on_garbage () =
  let loop = Loop.create () in
  let port = port_base + 1 in
  let down_reason = ref "" in
  let lep = Tcp_link.listen loop ~port in
  let listener =
    session loop lep ~passive:true ~as_:65000 ~id:"10.0.0.1"
      { Session.null_hooks with
        Session.on_down = (fun r -> down_reason := r) }
  in
  Session.start listener;
  (* A raw TCP client that talks garbage instead of BGP. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let connected () = Session.state listener <> Fsm.Active in
  ignore (Clock.run (Loop.clock loop) ~cond:connected ~step:5.0);
  ignore (Unix.write fd (Bytes.make 32 '\x00') 0 32);
  let is_down () = Session.state listener = Fsm.Idle in
  if not (Clock.run (Loop.clock loop) ~cond:is_down ~step:5.0) then
    Alcotest.fail "listener should reset on garbage";
  (* The listener sent us its OPEN first, then a NOTIFICATION for the
     garbage: walk the messages and confirm the last one is type 3. *)
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 128 in
  (try
     let rec slurp () =
       match Unix.read fd chunk 0 128 with
       | 0 -> ()
       | n ->
         Buffer.add_subbytes buf chunk 0 n;
         slurp ()
     in
     slurp ()
   with Unix.Unix_error _ -> ());
  let data = Buffer.contents buf in
  let rec last_type pos acc =
    if pos + 19 > String.length data then acc
    else
      let len = (Char.code data.[pos + 16] lsl 8) lor Char.code data.[pos + 17] in
      let ty = Char.code data.[pos + 18] in
      if len < 19 then acc else last_type (pos + len) (Some ty)
  in
  (match last_type 0 None with
  | Some ty -> Alcotest.(check int) "last message is NOTIFICATION" 3 ty
  | None -> Alcotest.fail "no reply messages captured");
  Unix.close fd;
  lep.Tcp_link.dispose ();
  Alcotest.(check bool) "reason recorded" true (!down_reason <> "")

(* Regression: a refused dial used to reach the FSM as a close, and
   [Connect, Tcp_closed] sends the session to Idle for good.  It is
   TcpConnectionFails: the session must wait in Active with
   ConnectRetry armed, ready to redial. *)
let test_refused_dial_retries () =
  let loop = Loop.create () in
  (* A port with no listener: bind an ephemeral one, then close it. *)
  let port =
    let ep = Tcp_link.listen loop ~port:0 in
    ep.Tcp_link.dispose ();
    ep.Tcp_link.port
  in
  (* The router's clock, with every timer it arms recorded. *)
  let base = Loop.clock loop in
  let timers = ref [] in
  let clock =
    Clock.make ~label:(Clock.label base)
      ~now:(fun () -> Clock.now base)
      ~schedule_at:(fun ~time f ->
        let h = Clock.schedule_at base ~time f in
        timers := (time, h) :: !timers;
        h)
      ~post:(Clock.post base)
      ~run_window:(fun ~cond ~step -> Clock.run base ~cond ~step)
  in
  let router =
    Router.create clock Bgp_router.Arch.unpaced ~local_asn:(asn 65000)
      ~router_id:(ip "10.0.0.1")
  in
  let peer =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "10.0.0.2")
      ~addr:(ip "127.0.0.1")
  in
  let dialer = Tcp_link.connect loop ~port in
  let t0 = Clock.now clock in
  Router.attach_peer ~active:true router ~peer ~link:dialer.Tcp_link.link;
  ignore
    (Clock.run (Loop.clock loop)
       ~cond:(fun () -> Router.session_state router peer <> Fsm.Connect)
       ~step:5.0);
  Alcotest.(check string) "session waits in Active" "Active"
    (Fsm.state_name (Router.session_state router peer));
  Alcotest.(check bool) "ConnectRetry armed" true
    (List.exists
       (fun (time, h) ->
         (not (Clock.cancelled h)) && time >= t0 +. Fsm.connect_retry -. 1.0)
       !timers);
  dialer.Tcp_link.dispose ()

(* Regression: the listener accepted every inbound connection and
   installed it in place of the live one, while the FSM ignores
   [Tcp_connected] in Established.  A stranger's bytes then fed the
   Established session with no OPEN.  A listener link has one peer, so
   a second connection is refused while one is installed. *)
let test_second_connection_refused () =
  let loop = Loop.create () in
  let clock = Loop.clock loop in
  let lep = Tcp_link.listen loop ~port:0 in
  let router =
    Router.create clock Bgp_router.Arch.unpaced ~local_asn:(asn 65000)
      ~router_id:(ip "10.0.0.1")
  in
  let peer =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "10.0.0.2")
      ~addr:(ip "127.0.0.1")
  in
  Router.attach_peer router ~peer ~link:lep.Tcp_link.link;
  let cep = Tcp_link.connect loop ~port:lep.Tcp_link.port in
  let speaker =
    session loop cep ~passive:false ~as_:65001 ~id:"10.0.0.2"
      Session.null_hooks
  in
  Session.start speaker;
  let loc_rib () = Bgp_rib.Rib_manager.loc_rib (Router.rib router) in
  let known = Bgp_addr.Prefix.of_string_exn "198.51.100.0/24" in
  let stranger = Bgp_addr.Prefix.of_string_exn "203.0.113.0/24" in
  if not
       (Clock.run clock
          ~cond:(fun () -> Session.state speaker = Fsm.Established)
          ~step:10.0)
  then Alcotest.fail "session did not establish";
  ignore (Session.send speaker (Msg.announcement attrs [ known ]));
  if not
       (Clock.run clock
          ~cond:(fun () -> Bgp_rib.Loc_rib.find (loc_rib ()) known <> None)
          ~step:10.0)
  then Alcotest.fail "known prefix not learned";
  let before = Bgp_rib.Loc_rib.fingerprint (loc_rib ()) in
  (* A third socket: an UPDATE with no OPEN. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, lep.Tcp_link.port));
  let wire = Bgp_wire.Codec.encode (Msg.announcement attrs [ stranger ]) in
  ignore (Unix.write_substring fd wire 0 (String.length wire));
  ignore (Clock.run clock ~cond:(fun () -> false) ~step:0.3);
  Alcotest.(check bool) "stranger's prefix not learned" true
    (Bgp_rib.Loc_rib.find (loc_rib ()) stranger = None);
  Alcotest.(check string) "Loc-RIB unchanged" before
    (Bgp_rib.Loc_rib.fingerprint (loc_rib ()));
  Alcotest.(check string) "router session still Established" "Established"
    (Fsm.state_name (Router.session_state router peer));
  Alcotest.(check string) "speaker session still Established" "Established"
    (Fsm.state_name (Session.state speaker));
  (* The newcomer was closed: EOF (or a reset, since it closed with our
     UPDATE unread), not silence. *)
  let readable, _, _ = Unix.select [ fd ] [] [] 1.0 in
  Alcotest.(check bool) "newcomer closed" true
    (readable <> []
    &&
    match Unix.read fd (Bytes.create 64) 0 64 with
    | n -> n = 0
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true);
  Unix.close fd;
  cep.Tcp_link.dispose ();
  lep.Tcp_link.dispose ()

(* Regression: a peer that wrote, closed and redialled before the
   listener's next loop turn was refused.  The accept ran first, found
   the old connection still installed with its EOF unread, and closed
   the newcomer; the old one went down at its next read, and nothing
   accepted again, so [on_connected] never fired a second time. *)
let test_same_turn_redial () =
  let loop = Loop.create () in
  let clock = Loop.clock loop in
  let lep = Tcp_link.listen loop ~port:0 in
  let link = lep.Tcp_link.link in
  let got = Buffer.create 16 and connects = ref 0 and closes = ref 0 in
  link.set_receiver (Buffer.add_string got);
  link.set_on_connected (fun () -> incr connects);
  link.set_on_closed (fun () -> incr closes);
  let dial () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, lep.Tcp_link.port));
    fd
  in
  let first = dial () in
  if not (Clock.run clock ~cond:(fun () -> !connects = 1) ~step:5.0) then
    Alcotest.fail "first connection not installed";
  (* Bytes, EOF and a new connection, all between two loop turns. *)
  ignore (Unix.write_substring first "hello" 0 5);
  Unix.close first;
  let second = dial () in
  ignore (Clock.run clock ~cond:(fun () -> !connects = 2) ~step:2.0);
  Alcotest.(check string) "old connection's bytes delivered" "hello"
    (Buffer.contents got);
  Alcotest.(check int) "old connection closed" 1 !closes;
  Alcotest.(check int) "newcomer connected" 2 !connects;
  ignore (Unix.write_substring second "world" 0 5);
  ignore (Clock.run clock ~cond:(fun () -> Buffer.length got = 10) ~step:2.0);
  Alcotest.(check string) "newcomer's bytes delivered" "helloworld"
    (Buffer.contents got);
  Unix.close second;
  lep.Tcp_link.dispose ()

(* The free cost model runs every stage inline: the sim and live legs
   of scenario 7 must still reach the same Loc-RIB. *)
let test_inline_crosscheck () =
  let module H = Bgpmark.Harness in
  let xc =
    H.cross_validate
      ~config:{ H.default_config with H.table_size = 200 }
      Bgp_router.Arch.unpaced (Bgpmark.Scenario.of_id_exn 7)
  in
  Alcotest.(check string) "Loc-RIB fingerprints" xc.H.xc_sim.H.locrib_fp
    xc.H.xc_live.H.locrib_fp;
  Alcotest.(check bool) "crosscheck ok" true (H.crosscheck_ok xc)

(* ------------------------------------------------------------------ *)
(* Transport backpressure                                              *)
(* ------------------------------------------------------------------ *)

let test_backpressure_small_writes () =
  (* Regression for the O(n^2) partial-write requeue: enqueue tens of
     thousands of small messages while the reader is stalled (the loop
     is not pumped), so the kernel buffer fills and the output queue
     grows; then drain and check every byte arrived intact and in
     order.  The old list-rebuilding queue made this quadratic. *)
  let loop = Loop.create () in
  let link = Tcp_link.pair loop in
  let connected = ref 0 in
  let received = Buffer.create (1 lsl 20) in
  link.Bgp_tcp.Tcp_link.connector.Bgp_engine.Link.set_on_connected (fun () ->
      incr connected);
  link.Bgp_tcp.Tcp_link.listener.Bgp_engine.Link.set_on_connected (fun () ->
      incr connected);
  link.Bgp_tcp.Tcp_link.listener.Bgp_engine.Link.set_receiver (fun bytes ->
      Buffer.add_string received bytes);
  link.Bgp_tcp.Tcp_link.connector.Bgp_engine.Link.start_connect ();
  if not (Clock.run (Loop.clock loop) ~cond:(fun () -> !connected = 2) ~step:5.0)
  then Alcotest.fail "link did not connect";
  let n = 50_000 in
  let expected = Buffer.create (1 lsl 20) in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    (* 64-byte distinct payloads: big enough total (3.2 MB) to overrun
       the socket buffers, small enough each to stress per-message
       queueing. *)
    let msg = Printf.sprintf "%08d:%s\n" i (String.make 54 'x') in
    Buffer.add_string expected msg;
    link.Bgp_tcp.Tcp_link.connector.Bgp_engine.Link.send msg
  done;
  let enqueue_dt = Unix.gettimeofday () -. t0 in
  let total = Buffer.length expected in
  let drained () = Buffer.length received = total in
  if not (Clock.run (Loop.clock loop) ~cond:drained ~step:30.0) then
    Alcotest.failf "only %d/%d bytes drained" (Buffer.length received) total;
  Alcotest.(check bool) "payload intact and in order" true
    (String.equal (Buffer.contents received) (Buffer.contents expected));
  (* The quadratic requeue took minutes here; the ring takes well under
     a second.  A loose wall-clock bound keeps the regression caught
     without being flaky on slow machines. *)
  Alcotest.(check bool) "enqueue phase is not quadratic" true
    (enqueue_dt < 10.0);
  link.Bgp_tcp.Tcp_link.dispose ()

(* ------------------------------------------------------------------ *)
(* Outbound tap                                                        *)
(* ------------------------------------------------------------------ *)

(* A connected pair whose listener collects what arrives. *)
let tapped_pair () =
  let loop = Loop.create () in
  let clock = Loop.clock loop in
  let link = Tcp_link.pair loop in
  let connected = ref 0 and received = Buffer.create 64 in
  link.connector.set_on_connected (fun () -> incr connected);
  link.listener.set_on_connected (fun () -> incr connected);
  link.listener.set_receiver (Buffer.add_string received);
  link.connector.start_connect ();
  if not (Clock.run clock ~cond:(fun () -> !connected = 2) ~step:5.0) then
    Alcotest.fail "link did not connect";
  (clock, link, received)

let test_tap_fates () =
  let clock, link, received = tapped_pair () in
  link.connector.set_tap
    (Some
       (function
         | "drop" -> Bgp_engine.Link.Drop
         | "swap" -> Bgp_engine.Link.Deliver "SWAP"
         | _ -> Bgp_engine.Link.Pass));
  List.iter link.connector.send [ "a"; "drop"; "swap"; "b" ];
  let arrived_all () = Buffer.length received >= 6 in
  if not (Clock.run clock ~cond:arrived_all ~step:5.0) then
    Alcotest.fail "tapped payloads never arrived";
  Alcotest.(check string) "pass, drop, swap, pass" "aSWAPb"
    (Buffer.contents received);
  link.dispose ()

(* ------------------------------------------------------------------ *)
(* Corked output                                                       *)
(* ------------------------------------------------------------------ *)

(* A connector whose peer is a raw blocking socket that the test reads
   and writes directly. *)
let raw_peer () =
  let loop = Loop.create () in
  let clock = Loop.clock loop in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let ep = Tcp_link.connect loop ~port in
  let connected = ref false in
  ep.link.set_on_connected (fun () -> connected := true);
  ep.link.start_connect ();
  let peer, _ = Unix.accept lsock in
  Unix.close lsock;
  if not (Clock.run clock ~cond:(fun () -> !connected) ~step:5.0) then
    Alcotest.fail "link did not connect";
  (clock, ep, peer)

(* Read from [fd] until [len] bytes or EOF; the bytes and the reads. *)
let read_upto fd len =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go reads =
    if Buffer.length buf >= len then reads
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> reads
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go (reads + 1)
  in
  let reads = go 0 in
  (Buffer.contents buf, reads)

let numbered n = List.init n (Printf.sprintf "%06d;")

let test_corked_sends_coalesce () =
  let clock, ep, peer = raw_peer () in
  let msgs = numbered 1000 in
  let expected = String.concat "" msgs in
  let early = ref true in
  Clock.post clock (fun () ->
      List.iter ep.link.send msgs;
      (* Nothing leaves before the turn's flush. *)
      let readable, _, _ = Unix.select [ peer ] [] [] 0.0 in
      early := readable <> []);
  ignore (Clock.run clock ~cond:(fun () -> not !early) ~step:0.2);
  Alcotest.(check bool) "no bytes inside the callback" false !early;
  let got, reads = read_upto peer (String.length expected) in
  Alcotest.(check string) "every message, in order" expected got;
  Alcotest.(check bool) (Printf.sprintf "%d reads <= 10" reads) true (reads <= 10);
  Unix.close peer;
  ep.dispose ()

let test_close_flushes () =
  (* Sends outside any pump stay queued until [close], which must write
     them before it closes the socket. *)
  let _, ep, peer = raw_peer () in
  let msgs = numbered 1000 in
  List.iter ep.link.send msgs;
  ep.link.close ();
  let got, _ = read_upto peer max_int in
  Alcotest.(check string) "all bytes, then EOF" (String.concat "" msgs) got;
  Unix.close peer;
  ep.dispose ()

(* Regression: nothing ignored SIGPIPE, so a write to a peer that had
   closed killed the process (exit 141) before [flush_out]'s error
   branch could tear the link down. *)
let test_write_to_closed_peer () =
  let clock, ep, peer = raw_peer () in
  let closed = ref false in
  ep.link.set_on_closed (fun () -> closed := true);
  (* The peer goes away before the link has read its FIN. *)
  Unix.close peer;
  let sent = ref false in
  Clock.post clock (fun () ->
      ep.link.send "first";
      ep.link.send "second";
      sent := true);
  ignore (Clock.run clock ~cond:(fun () -> !sent) ~step:5.0);
  (* The peer's RST is back by now: this write fails with EPIPE. *)
  Unix.sleepf 0.05;
  ep.link.send "third";
  Alcotest.(check bool) "link reports the close" true
    (Clock.run clock ~cond:(fun () -> !closed) ~step:5.0);
  ep.dispose ()

let test_drain_bound () =
  (* A callback that re-posts itself forever must not keep the loop
     from reading a ready socket. *)
  let clock, ep, peer = raw_peer () in
  let got = ref false in
  ep.link.set_receiver (fun _ -> got := true);
  let spins = ref 0 and cap = 10_000_000 in
  let rec spin () =
    incr spins;
    if (not !got) && !spins < cap then Clock.post clock spin
  in
  Clock.post clock spin;
  ignore (Unix.write_substring peer "ping" 0 4);
  Alcotest.(check bool) "bytes reached the receiver" true
    (Clock.run clock ~cond:(fun () -> !got) ~step:5.0);
  Alcotest.(check bool) "while the chain still ran" true (!spins < cap);
  Unix.close peer;
  ep.dispose ()

(* ------------------------------------------------------------------ *)
(* Event-loop timers                                                   *)
(* ------------------------------------------------------------------ *)

let test_timer_firing_order () =
  (* Let several timers all come due before the loop runs: they must
     still fire in fire_at order, not insertion order. *)
  let clock = Loop.clock (Loop.create ()) in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Clock.schedule clock ~delay:0.03 (note "c"));
  ignore (Clock.schedule clock ~delay:0.01 (note "a"));
  ignore (Clock.schedule clock ~delay:0.02 (note "b"));
  Unix.sleepf 0.05;
  ignore
    (Clock.run clock ~cond:(fun () -> List.length !fired = 3) ~step:2.0);
  Alcotest.(check (list string)) "deadline order" [ "a"; "b"; "c" ]
    (List.rev !fired)

let test_timer_cancel_within_batch () =
  (* A timer cancelled by an earlier timer of the same due batch must
     not fire. *)
  let clock = Loop.clock (Loop.create ()) in
  let fired = ref [] in
  let b = ref None in
  ignore
    (Clock.schedule clock ~delay:0.01 (fun () ->
         fired := "a" :: !fired;
         Option.iter Clock.cancel !b));
  b :=
    Some (Clock.schedule clock ~delay:0.02 (fun () -> fired := "b" :: !fired));
  ignore (Clock.schedule clock ~delay:0.03 (fun () -> fired := "c" :: !fired));
  Unix.sleepf 0.05;
  ignore (Clock.run clock ~cond:(fun () -> List.mem "c" !fired) ~step:2.0);
  Alcotest.(check (list string)) "b cancelled" [ "a"; "c" ] (List.rev !fired)

let test_timer_beyond_old_poll_cap () =
  (* The loop sleeps to the real next deadline now (no 100 ms poll
     cap); a timer well past that cap must still fire on time. *)
  let clock = Loop.clock (Loop.create ()) in
  let fired = ref false in
  ignore (Clock.schedule clock ~delay:0.25 (fun () -> fired := true));
  let t0 = Unix.gettimeofday () in
  let ok = Clock.run clock ~cond:(fun () -> !fired) ~step:5.0 in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "fired" true ok;
  Alcotest.(check bool) "not early" true (dt >= 0.24);
  Alcotest.(check bool) "not stuck" true (dt < 2.0)

let () =
  Alcotest.run "bgp_tcp"
    [ ( "loopback",
        [ Alcotest.test_case "full session over real TCP" `Quick test_loopback_session;
          Alcotest.test_case "garbage triggers notification" `Quick
            test_notification_on_garbage;
          Alcotest.test_case "refused dial retries from Active" `Quick
            test_refused_dial_retries;
          Alcotest.test_case "second connection cannot take over" `Quick
            test_second_connection_refused;
          Alcotest.test_case "redial in the same loop turn" `Quick
            test_same_turn_redial;
          Alcotest.test_case "sim = live on the inline path" `Quick
            test_inline_crosscheck
        ] );
      ( "backpressure",
        [ Alcotest.test_case "small writes vs stalled reader" `Quick
            test_backpressure_small_writes
        ] );
      ( "tap",
        [ Alcotest.test_case "passes, drops and swaps in order" `Quick
            test_tap_fates
        ] );
      ( "cork",
        [ Alcotest.test_case "sends coalesce in order" `Quick
            test_corked_sends_coalesce;
          Alcotest.test_case "close flushes first" `Quick test_close_flushes;
          Alcotest.test_case "write to a closed peer" `Quick
            test_write_to_closed_peer;
          Alcotest.test_case "drain bound stops starvation" `Quick
            test_drain_bound
        ] );
      ( "timers",
        [ Alcotest.test_case "firing order" `Quick test_timer_firing_order;
          Alcotest.test_case "cancel within due batch" `Quick
            test_timer_cancel_within_batch;
          Alcotest.test_case "beyond the old poll cap" `Quick
            test_timer_beyond_old_poll_cap
        ] )
    ]
