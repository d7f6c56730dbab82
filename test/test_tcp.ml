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
  let retry =
    (Fsm.default_config ~asn:(asn 65000) ~router_id:(ip "10.0.0.1"))
      .Fsm.connect_retry
  in
  Alcotest.(check bool) "ConnectRetry armed" true
    (List.exists
       (fun (time, h) -> (not (Clock.cancelled h)) && time >= t0 +. retry -. 1.0)
       !timers);
  dialer.Tcp_link.dispose ()

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
            test_refused_dial_retries
        ] );
      ( "backpressure",
        [ Alcotest.test_case "small writes vs stalled reader" `Quick
            test_backpressure_small_writes
        ] );
      ( "tap",
        [ Alcotest.test_case "passes, drops and swaps in order" `Quick
            test_tap_fates
        ] );
      ( "timers",
        [ Alcotest.test_case "firing order" `Quick test_timer_firing_order;
          Alcotest.test_case "cancel within due batch" `Quick
            test_timer_cancel_within_batch;
          Alcotest.test_case "beyond the old poll cap" `Quick
            test_timer_beyond_old_poll_cap
        ] )
    ]
