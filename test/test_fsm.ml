open Bgp_fsm
module Msg = Bgp_wire.Msg
module Link = Bgp_engine.Link
module Clock = Bgp_engine.Clock

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int
let pfx = Bgp_addr.Prefix.of_string_exn

let cfg = Fsm.default_config ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
let peer_open = Msg.open_msg ~hold_time:90 ~asn:(asn 65002) ~bgp_id:(ip "192.0.2.2") ()

let attrs =
  Bgp_route.Attrs.make
    ~as_path:(Bgp_route.As_path.of_asns [ asn 65002 ])
    ~next_hop:(ip "192.0.2.2") ()

let state_t = Alcotest.testable Fsm.pp_state ( = )

let has_action pred actions = List.exists pred actions

let is_send_open = function Fsm.Send (Msg.Open _) -> true | _ -> false
let is_send_keepalive = function Fsm.Send Msg.Keepalive -> true | _ -> false

let is_send_notification code = function
  | Fsm.Send (Msg.Notification e) -> fst (Msg.error_code e) = code
  | _ -> false

(* Drive a pure FSM through a list of events, returning final state. *)
let drive t events =
  List.fold_left
    (fun (t, _) ev -> Fsm.handle t ev)
    (t, [])
    events

(* ------------------------------------------------------------------ *)
(* Pure FSM transitions                                                *)
(* ------------------------------------------------------------------ *)

let test_happy_path () =
  let t = Fsm.create cfg in
  Alcotest.check state_t "initial" Fsm.Idle (Fsm.state t);
  let t, acts = Fsm.handle t Fsm.Manual_start in
  Alcotest.check state_t "connect" Fsm.Connect (Fsm.state t);
  Alcotest.(check bool) "starts connect" true
    (has_action (function Fsm.Start_connect -> true | _ -> false) acts);
  let t, acts = Fsm.handle t Fsm.Tcp_connected in
  Alcotest.check state_t "opensent" Fsm.Open_sent (Fsm.state t);
  Alcotest.(check bool) "sends open" true (has_action is_send_open acts);
  let t, acts = Fsm.handle t (Fsm.Msg_received peer_open) in
  Alcotest.check state_t "openconfirm" Fsm.Open_confirm (Fsm.state t);
  Alcotest.(check bool) "sends keepalive" true (has_action is_send_keepalive acts);
  Alcotest.(check (option (float 0.01))) "negotiated hold" (Some 90.0)
    (Fsm.negotiated_hold_time t);
  let t, acts = Fsm.handle t (Fsm.Msg_received Msg.Keepalive) in
  Alcotest.check state_t "established" Fsm.Established (Fsm.state t);
  Alcotest.(check bool) "signals established" true
    (has_action (function Fsm.Session_established -> true | _ -> false) acts)

let established () =
  let t = Fsm.create cfg in
  let t, _ =
    drive t
      [ Fsm.Manual_start; Fsm.Tcp_connected; Fsm.Msg_received peer_open;
        Fsm.Msg_received Msg.Keepalive ]
  in
  t

let test_update_delivery () =
  let t = established () in
  let u =
    Msg.Update
      { Msg.withdrawn = [];
        attrs = Some (Bgp_route.Attrs.Interned.intern attrs);
        nlri = [ pfx "10.0.0.0/8" ] }
  in
  let t, acts = Fsm.handle t (Fsm.Msg_received u) in
  Alcotest.check state_t "stays established" Fsm.Established (Fsm.state t);
  Alcotest.(check bool) "delivers update" true
    (has_action (function Fsm.Deliver_update _ -> true | _ -> false) acts);
  Alcotest.(check bool) "rearms hold" true
    (has_action (function Fsm.Arm (Fsm.Hold, _) -> true | _ -> false) acts)

let test_hold_negotiation_min () =
  (* Peer proposes 30, we propose 90: min wins. *)
  let small = Msg.open_msg ~hold_time:30 ~asn:(asn 65002) ~bgp_id:(ip "192.0.2.2") () in
  let t = Fsm.create cfg in
  let t, _ = drive t [ Fsm.Manual_start; Fsm.Tcp_connected; Fsm.Msg_received small ] in
  Alcotest.(check (option (float 0.01))) "min hold" (Some 30.0)
    (Fsm.negotiated_hold_time t)

let test_hold_zero_disables () =
  let zero = Msg.open_msg ~hold_time:0 ~asn:(asn 65002) ~bgp_id:(ip "192.0.2.2") () in
  let t = Fsm.create cfg in
  let t, acts = drive t [ Fsm.Manual_start; Fsm.Tcp_connected ] in
  ignore acts;
  let t, acts = Fsm.handle t (Fsm.Msg_received zero) in
  Alcotest.(check (option (float 0.01))) "disabled" None (Fsm.negotiated_hold_time t);
  Alcotest.(check bool) "cancels hold" true
    (has_action (function Fsm.Cancel Fsm.Hold -> true | _ -> false) acts)

let test_hold_expiry_sends_notification () =
  let t = established () in
  let t, acts = Fsm.handle t (Fsm.Timer_expired Fsm.Hold) in
  Alcotest.check state_t "idle" Fsm.Idle (Fsm.state t);
  Alcotest.(check bool) "hold notification" true
    (has_action (is_send_notification 4) acts);
  Alcotest.(check bool) "session down" true
    (has_action (function Fsm.Session_down _ -> true | _ -> false) acts)

let test_keepalive_timer_resends () =
  let t = established () in
  let t, acts = Fsm.handle t (Fsm.Timer_expired Fsm.Keepalive) in
  Alcotest.check state_t "still up" Fsm.Established (Fsm.state t);
  Alcotest.(check bool) "sends ka" true (has_action is_send_keepalive acts);
  Alcotest.(check bool) "rearms ka" true
    (has_action (function Fsm.Arm (Fsm.Keepalive, _) -> true | _ -> false) acts)

let test_keepalive_rearm_interval () =
  (* RFC 4271 §10: keepalive at one third of the negotiated hold time —
     both the initial arm and every timer-driven re-arm. *)
  let expected = 90.0 /. 3.0 in
  let interval acts =
    List.find_map
      (function Fsm.Arm (Fsm.Keepalive, d) -> Some d | _ -> None)
      acts
  in
  let t = Fsm.create cfg in
  let t, _ = drive t [ Fsm.Manual_start; Fsm.Tcp_connected ] in
  let t, acts = Fsm.handle t (Fsm.Msg_received peer_open) in
  Alcotest.(check (option (float 1e-9))) "initial arm" (Some expected)
    (interval acts);
  let t, _ = Fsm.handle t (Fsm.Msg_received Msg.Keepalive) in
  let t, acts = Fsm.handle t (Fsm.Timer_expired Fsm.Keepalive) in
  Alcotest.(check (option (float 1e-9))) "re-arm in Established"
    (Some expected) (interval acts);
  (* ...and re-arming from Open_confirm uses the same interval. *)
  let t2 = Fsm.create cfg in
  let t2, _ =
    drive t2 [ Fsm.Manual_start; Fsm.Tcp_connected; Fsm.Msg_received peer_open ]
  in
  let _, acts2 = Fsm.handle t2 (Fsm.Timer_expired Fsm.Keepalive) in
  Alcotest.(check (option (float 1e-9))) "re-arm in Open_confirm"
    (Some expected) (interval acts2);
  ignore t

let test_teardown_action_order () =
  (* Teardown must cancel every timer before Close_connection: an action
     interpreter that closes first could see a stale timer fire against
     a dead connection.  The NOTIFICATION (if any) goes first, while the
     connection is still up; Session_down is last. *)
  let t = established () in
  let _, acts = Fsm.handle t Fsm.Manual_stop in
  let idx pred =
    let rec go i = function
      | [] -> Alcotest.fail "action missing"
      | a :: rest -> if pred a then i else go (i + 1) rest
    in
    go 0 acts
  in
  let i_notify = idx (is_send_notification 6) in
  let i_close = idx (function Fsm.Close_connection -> true | _ -> false) in
  let i_down = idx (function Fsm.Session_down _ -> true | _ -> false) in
  let cancels =
    List.filteri (fun i _ -> i < i_close) acts
    |> List.filter (function Fsm.Cancel _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "notification before close" true (i_notify < i_close);
  Alcotest.(check int) "all three timers cancelled before close" 3 cancels;
  Alcotest.(check bool) "session down last" true
    (i_down = List.length acts - 1)

let test_route_refresh_delivery () =
  let t = established () in
  let t, acts = Fsm.handle t (Fsm.Msg_received Msg.route_refresh) in
  Alcotest.check state_t "stays established" Fsm.Established (Fsm.state t);
  Alcotest.(check bool) "delivers refresh" true
    (has_action (function Fsm.Deliver_refresh (1, 1) -> true | _ -> false) acts);
  (* ...but a refresh before Established is an FSM error *)
  let t2 = Fsm.create cfg in
  let t2, _ = drive t2 [ Fsm.Manual_start; Fsm.Tcp_connected ] in
  let t2, acts2 = Fsm.handle t2 (Fsm.Msg_received Msg.route_refresh) in
  Alcotest.check state_t "reset" Fsm.Idle (Fsm.state t2);
  Alcotest.(check bool) "fsm error" true (has_action (is_send_notification 5) acts2)

let test_unexpected_open_in_established () =
  let t = established () in
  let t, acts = Fsm.handle t (Fsm.Msg_received peer_open) in
  Alcotest.check state_t "reset" Fsm.Idle (Fsm.state t);
  Alcotest.(check bool) "fsm error" true (has_action (is_send_notification 5) acts)

let test_notification_resets () =
  let t = established () in
  let t, acts = Fsm.handle t (Fsm.Msg_received (Msg.Notification Msg.Cease)) in
  Alcotest.check state_t "idle" Fsm.Idle (Fsm.state t);
  (* Receiving a notification must not send one back. *)
  Alcotest.(check bool) "no notification reply" false
    (has_action (function Fsm.Send (Msg.Notification _) -> true | _ -> false) acts)

let test_protocol_error_notifies () =
  let t = established () in
  let err = Msg.Message_header_error Msg.Connection_not_synchronized in
  let t, acts = Fsm.handle t (Fsm.Protocol_error err) in
  Alcotest.check state_t "idle" Fsm.Idle (Fsm.state t);
  Alcotest.(check bool) "notifies header error" true
    (has_action (is_send_notification 1) acts)

let test_manual_stop_ceases () =
  let t = established () in
  let t, acts = Fsm.handle t Fsm.Manual_stop in
  Alcotest.check state_t "idle" Fsm.Idle (Fsm.state t);
  Alcotest.(check bool) "cease" true (has_action (is_send_notification 6) acts)

let test_passive_waits () =
  let t = Fsm.create { cfg with Fsm.passive = true } in
  let t, acts = Fsm.handle t Fsm.Manual_start in
  Alcotest.check state_t "active (waiting)" Fsm.Active (Fsm.state t);
  Alcotest.(check bool) "no connect attempt" false
    (has_action (function Fsm.Start_connect -> true | _ -> false) acts);
  let t, acts = Fsm.handle t Fsm.Tcp_connected in
  Alcotest.check state_t "opensent" Fsm.Open_sent (Fsm.state t);
  Alcotest.(check bool) "sends open" true (has_action is_send_open acts)

let test_connect_retry () =
  let t = Fsm.create cfg in
  let t, _ = Fsm.handle t Fsm.Manual_start in
  let t, acts = Fsm.handle t Fsm.Tcp_failed in
  Alcotest.check state_t "active" Fsm.Active (Fsm.state t);
  Alcotest.(check bool) "rearm retry" true
    (has_action (function Fsm.Arm (Fsm.Connect_retry, _) -> true | _ -> false) acts);
  let t, acts = Fsm.handle t (Fsm.Timer_expired Fsm.Connect_retry) in
  Alcotest.check state_t "reconnects" Fsm.Connect (Fsm.state t);
  Alcotest.(check bool) "start connect" true
    (has_action (function Fsm.Start_connect -> true | _ -> false) acts)

let test_connection_loss_in_established () =
  let t = established () in
  let t, _ = Fsm.handle t Fsm.Tcp_closed in
  Alcotest.check state_t "idle after loss" Fsm.Idle (Fsm.state t)

(* ------------------------------------------------------------------ *)
(* Framer                                                              *)
(* ------------------------------------------------------------------ *)

let test_framer_chunked () =
  let f = Framer.create () in
  let wire = Bgp_wire.Codec.encode Msg.Keepalive ^ Bgp_wire.Codec.encode peer_open in
  (* feed in 5-byte chunks *)
  let rec feed i =
    if i < String.length wire then begin
      Framer.feed f (String.sub wire i (min 5 (String.length wire - i)));
      feed (i + 5)
    end
  in
  feed 0;
  (match Framer.next f with
  | Framer.Msg (Msg.Keepalive, 19) -> ()
  | _ -> Alcotest.fail "first message");
  (match Framer.next f with
  | Framer.Msg (Msg.Open _, _) -> ()
  | _ -> Alcotest.fail "second message");
  (match Framer.next f with
  | Framer.Need_more -> ()
  | _ -> Alcotest.fail "drained");
  Alcotest.(check int) "no leftover" 0 (Framer.buffered f)

let test_framer_need_more () =
  let f = Framer.create () in
  Framer.feed f (String.sub (Bgp_wire.Codec.encode Msg.Keepalive) 0 10);
  match Framer.next f with
  | Framer.Need_more -> ()
  | _ -> Alcotest.fail "should need more"

let test_framer_poisoned () =
  let f = Framer.create () in
  Framer.feed f (String.make 19 '\x00');
  (match Framer.next f with
  | Framer.Error (Msg.Message_header_error Msg.Connection_not_synchronized) -> ()
  | _ -> Alcotest.fail "marker error expected");
  (* stays poisoned even with good bytes appended *)
  Framer.feed f (Bgp_wire.Codec.encode Msg.Keepalive);
  match Framer.next f with
  | Framer.Error _ -> ()
  | _ -> Alcotest.fail "should stay poisoned"

(* ------------------------------------------------------------------ *)
(* Session over an in-memory loopback                                  *)
(* ------------------------------------------------------------------ *)

(* A link whose transport actions do nothing: the tests drive the
   session's entry points themselves. *)
let null_link =
  { Link.send = ignore; start_connect = ignore; close = ignore;
    set_receiver = ignore; set_on_connected = ignore; set_on_closed = ignore;
    set_on_failed = ignore; set_tap = ignore }

(* A synchronous pipe connecting two sessions' links; their timers sit
   on a simulation engine that these tests never run, so none fires. *)
type pipe = {
  mutable to_a : string list;
  mutable to_b : string list;
  engine : Bgp_engine.Engine.t;
}

let new_pipe () = { to_a = []; to_b = []; engine = Bgp_engine.Engine.create () }

let make_session pipe ~dir cfg hooks =
  let send bytes =
    if dir = `A then pipe.to_b <- pipe.to_b @ [ bytes ]
    else pipe.to_a <- pipe.to_a @ [ bytes ]
  in
  Session.create cfg (Clock.of_engine pipe.engine)
    { null_link with Link.send } hooks

let pump pipe a b =
  (* Deliver queued bytes until quiescent. *)
  let rec go budget =
    if budget = 0 then Alcotest.fail "pump did not quiesce";
    match pipe.to_a, pipe.to_b with
    | [], [] -> ()
    | xs, ys ->
      pipe.to_a <- [];
      pipe.to_b <- [];
      List.iter (Session.feed a) xs;
      List.iter (Session.feed b) ys;
      go (budget - 1)
  in
  go 100

let test_session_handshake_and_update () =
  let pipe = new_pipe () in
  let got_update = ref None in
  let a_cfg = Fsm.default_config ~asn:(asn 65001) ~router_id:(ip "192.0.2.1") in
  let b_cfg =
    { (Fsm.default_config ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")) with
      Fsm.passive = true }
  in
  let a = make_session pipe ~dir:`A a_cfg Session.null_hooks in
  let b =
    make_session pipe ~dir:`B b_cfg
      { Session.null_hooks with
        Session.on_update = (fun u -> got_update := Some u) }
  in
  Session.start a;
  Session.start b;
  (* Simulate the TCP connection coming up on both ends. *)
  Session.connected a;
  Session.connected b;
  pump pipe a b;
  Alcotest.(check string) "a established" "Established"
    (Fsm.state_name (Session.state a));
  Alcotest.(check string) "b established" "Established"
    (Fsm.state_name (Session.state b));
  (* a sends an update; b's hook sees it *)
  let u = Msg.announcement attrs [ pfx "10.0.0.0/8" ] in
  Alcotest.(check bool) "send ok" true (Session.send a u);
  pump pipe a b;
  (match !got_update with
  | Some uu -> Alcotest.(check int) "one nlri" 1 (List.length uu.Msg.nlri)
  | None -> Alcotest.fail "update not delivered");
  (* cannot send when not established *)
  Session.stop a;
  Alcotest.(check bool) "send refused" false (Session.send a u)

let test_session_garbage_kills () =
  let pipe = new_pipe () in
  let down = ref false in
  let a_cfg = Fsm.default_config ~asn:(asn 65001) ~router_id:(ip "192.0.2.1") in
  let b_cfg =
    { (Fsm.default_config ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")) with
      Fsm.passive = true }
  in
  let a = make_session pipe ~dir:`A a_cfg Session.null_hooks in
  let b =
    make_session pipe ~dir:`B b_cfg
      { Session.null_hooks with Session.on_down = (fun _ -> down := true) }
  in
  Session.start a;
  Session.start b;
  Session.connected a;
  Session.connected b;
  pump pipe a b;
  (* feed garbage straight into b *)
  Session.feed b (String.make 19 '\x00');
  Alcotest.(check bool) "session down" true !down;
  Alcotest.(check string) "b idle" "Idle" (Fsm.state_name (Session.state b))

(* Each message received re-arms the hold timer in place: a KEEPALIVE
   every 30 s keeps the session up far past the 90 s hold time, the
   queue holds no more than the two sessions' timers, and once
   the messages stop the hold timer still expires 90 s after the last
   one. *)
let test_session_hold_reset_then_expiry () =
  let pipe = new_pipe () in
  let e = pipe.engine in
  let down = ref None in
  let a_cfg = Fsm.default_config ~asn:(asn 65001) ~router_id:(ip "192.0.2.1") in
  let b_cfg =
    { (Fsm.default_config ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")) with
      Fsm.passive = true }
  in
  let a = make_session pipe ~dir:`A a_cfg Session.null_hooks in
  let b =
    make_session pipe ~dir:`B b_cfg
      { Session.null_hooks with Session.on_down = (fun r -> down := Some r) }
  in
  Session.start a;
  Session.start b;
  Session.connected a;
  Session.connected b;
  pump pipe a b;
  Alcotest.(check string) "b established" "Established"
    (Fsm.state_name (Session.state b));
  (* From here on only the script talks to b; a falls silent. *)
  let keepalive = Bgp_wire.Codec.encode Msg.Keepalive in
  let last = ref (Bgp_engine.Engine.now e) in
  for _ = 1 to 10 do
    Bgp_engine.Engine.run ~until:(!last +. 30.0) e;
    pipe.to_a <- [];
    Session.feed b keepalive;
    last := Bgp_engine.Engine.now e;
    Alcotest.(check bool) "at most both sessions' hold and keepalive" true
      (Bgp_engine.Engine.pending e <= 4)
  done;
  Alcotest.(check string) "up 300 s on a 90 s hold" "Established"
    (Fsm.state_name (Session.state b));
  Bgp_engine.Engine.run ~until:(!last +. 89.9) e;
  Alcotest.(check string) "still up just before expiry" "Established"
    (Fsm.state_name (Session.state b));
  Bgp_engine.Engine.run ~until:(!last +. 90.1) e;
  Alcotest.(check string) "hold expired" "Idle"
    (Fsm.state_name (Session.state b));
  Alcotest.(check bool) "down reported" true (Option.is_some !down)

(* The session dials only when active: a recording link counts
   [start_connect] calls.  The passive side also sees a connection
   drop and its ConnectRetry expire (the FSM then asks to dial, and the
   session must not). *)
let test_session_dials_only_when_active () =
  let dials cfg =
    let engine = Bgp_engine.Engine.create () in
    let n = ref 0 and on_connected = ref ignore and on_closed = ref ignore in
    let link =
      { null_link with
        Link.start_connect = (fun () -> incr n);
        set_on_connected = (fun f -> on_connected := f);
        set_on_closed = (fun f -> on_closed := f) }
    in
    let s = Session.create cfg (Clock.of_engine engine) link Session.null_hooks in
    Session.start s;
    !on_connected ();
    !on_closed ();
    Bgp_engine.Engine.run ~until:(3.0 *. cfg.Fsm.connect_retry) engine;
    !n
  in
  Alcotest.(check bool) "active dials" true (dials cfg > 0);
  Alcotest.(check int) "passive never dials" 0
    (dials { cfg with Fsm.passive = true })

(* Property: any chunking of a valid message stream reassembles the
   same messages. *)
let prop_framer_chunking =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* cuts = list_size (int_range 0 20) (int_range 1 50) in
      return (n, cuts))
  in
  QCheck2.Test.make ~name:"framer reassembles under arbitrary chunking" ~count:200
    gen
    (fun (n, cuts) ->
      let msgs =
        List.init n (fun i ->
            if i mod 3 = 0 then Msg.Keepalive
            else if i mod 3 = 1 then peer_open
            else
              Msg.announcement attrs
                [ Bgp_addr.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/16" i) ])
      in
      let wire = String.concat "" (List.map Bgp_wire.Codec.encode msgs) in
      let f = Framer.create () in
      (* cut the stream at pseudo-random points driven by [cuts] *)
      let pos = ref 0 in
      let cuts = if cuts = [] then [ String.length wire ] else cuts in
      let rec feed i =
        if !pos < String.length wire then begin
          let step = List.nth cuts (i mod List.length cuts) in
          let take = min step (String.length wire - !pos) in
          Framer.feed f (String.sub wire !pos take);
          pos := !pos + take;
          feed (i + 1)
        end
      in
      feed 0;
      let rec drain acc =
        match Framer.next f with
        | Framer.Msg (m, _) -> drain (m :: acc)
        | Framer.Need_more -> List.rev acc
        | Framer.Error _ -> []
      in
      let out = drain [] in
      List.length out = n
      && List.for_all2
           (fun a b -> Msg.kind_name a = Msg.kind_name b)
           msgs out)

(* Robustness: any sequence of events leaves the FSM in a defined state
   and never raises. Also checks a structural invariant: only
   Established delivers updates. *)
let prop_fsm_never_crashes =
  let gen_event =
    QCheck2.Gen.oneofl
      [ Fsm.Manual_start; Fsm.Manual_stop; Fsm.Tcp_connected; Fsm.Tcp_failed;
        Fsm.Tcp_closed; Fsm.Msg_received peer_open;
        Fsm.Msg_received Msg.Keepalive;
        Fsm.Msg_received (Msg.announcement attrs [ pfx "10.0.0.0/8" ]);
        Fsm.Msg_received (Msg.Notification Msg.Cease);
        Fsm.Msg_received Msg.route_refresh;
        Fsm.Protocol_error (Msg.Message_header_error Msg.Connection_not_synchronized);
        Fsm.Timer_expired Fsm.Connect_retry; Fsm.Timer_expired Fsm.Hold;
        Fsm.Timer_expired Fsm.Keepalive ]
  in
  QCheck2.Test.make ~name:"fsm survives arbitrary event sequences" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) gen_event)
    (fun events ->
      let ok = ref true in
      let _ =
        List.fold_left
          (fun t ev ->
            let t', actions = Fsm.handle t ev in
            List.iter
              (fun a ->
                match a, Fsm.state t with
                | Fsm.Deliver_update _, Fsm.Established -> ()
                | Fsm.Deliver_update _, _ -> ok := false
                | _ -> ())
              actions;
            t')
          (Fsm.create cfg) events
      in
      !ok)

let () =
  Alcotest.run "bgp_fsm"
    [ ( "fsm",
        [ Alcotest.test_case "happy path to established" `Quick test_happy_path;
          Alcotest.test_case "update delivery" `Quick test_update_delivery;
          Alcotest.test_case "route refresh delivery" `Quick test_route_refresh_delivery;
          Alcotest.test_case "hold negotiation min" `Quick test_hold_negotiation_min;
          Alcotest.test_case "hold zero disables" `Quick test_hold_zero_disables;
          Alcotest.test_case "hold expiry notifies" `Quick
            test_hold_expiry_sends_notification;
          Alcotest.test_case "keepalive timer" `Quick test_keepalive_timer_resends;
          Alcotest.test_case "keepalive re-arm interval" `Quick
            test_keepalive_rearm_interval;
          Alcotest.test_case "teardown action order" `Quick
            test_teardown_action_order;
          Alcotest.test_case "unexpected open" `Quick test_unexpected_open_in_established;
          Alcotest.test_case "notification resets" `Quick test_notification_resets;
          Alcotest.test_case "protocol error notifies" `Quick test_protocol_error_notifies;
          Alcotest.test_case "manual stop" `Quick test_manual_stop_ceases;
          Alcotest.test_case "passive mode" `Quick test_passive_waits;
          Alcotest.test_case "connect retry" `Quick test_connect_retry;
          Alcotest.test_case "connection loss" `Quick test_connection_loss_in_established
        ] );
      ( "framer",
        Alcotest.test_case "chunked stream" `Quick test_framer_chunked
        :: Alcotest.test_case "need more" `Quick test_framer_need_more
        :: Alcotest.test_case "poisoned" `Quick test_framer_poisoned
        :: List.map QCheck_alcotest.to_alcotest [ prop_framer_chunking ] );
      ( "session",
        [ Alcotest.test_case "handshake and update" `Quick
            test_session_handshake_and_update;
          Alcotest.test_case "garbage kills session" `Quick test_session_garbage_kills;
          Alcotest.test_case "hold reset by messages, then expiry" `Quick
            test_session_hold_reset_then_expiry;
          Alcotest.test_case "dials only when active" `Quick
            test_session_dials_only_when_active
        ] );
      ( "fsm-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_fsm_never_crashes ] )
    ]
