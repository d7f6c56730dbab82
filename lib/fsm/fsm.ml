module Msg = Bgp_wire.Msg

type state = Idle | Connect | Active | Open_sent | Open_confirm | Established

let state_name = function
  | Idle -> "Idle"
  | Connect -> "Connect"
  | Active -> "Active"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

let pp_state ppf s = Format.pp_print_string ppf (state_name s)

type timer = Connect_retry | Hold | Keepalive

type event =
  | Manual_start
  | Manual_stop
  | Tcp_connected
  | Tcp_failed
  | Tcp_closed
  | Msg_received of Msg.t
  | Protocol_error of Msg.error
  | Timer_expired of timer

type action =
  | Start_connect
  | Close_connection
  | Send of Msg.t
  | Arm of timer * float
  | Cancel of timer
  | Deliver_update of Msg.update
  | Deliver_refresh of int * int
  | Session_established
  | Session_down of string

type config = {
  my_asn : Bgp_route.Asn.t;
  my_id : Bgp_addr.Ipv4.t;
  passive : bool;
}

let hold_time = 90
let connect_retry = 30.0

let default_config ~asn ~router_id =
  { my_asn = asn; my_id = router_id; passive = false }

type t = {
  cfg : config;
  st : state;
  hold : float option;        (* negotiated, None before/when disabled *)
  popen : Msg.open_msg option;
}

let create cfg = { cfg; st = Idle; hold = None; popen = None }
let state t = t.st
let config t = t.cfg
let negotiated_hold_time t = t.hold
let peer_open t = t.popen

let my_open t =
  Msg.open_msg ~hold_time ~asn:t.cfg.my_asn ~bgp_id:t.cfg.my_id ()

(* Negotiated hold = min of both proposals; the peer's 0 disables. *)
let negotiate (o : Msg.open_msg) =
  if o.Msg.opn_hold_time = 0 then None
  else Some (float_of_int (min hold_time o.Msg.opn_hold_time))

(* RFC 4271 §10 recommends a KeepaliveTime of one third of the Hold
   Time; every (re)arm of the keepalive timer goes through here so the
   ratio cannot drift between states. *)
let keepalive_interval h = h /. 3.0

let hold_actions hold =
  match hold with
  | None -> [ Cancel Hold; Cancel Keepalive ]
  | Some h -> [ Arm (Hold, h); Arm (Keepalive, keepalive_interval h) ]

let rearm_keepalive t =
  match t.hold with
  | None -> []
  | Some h -> [ Arm (Keepalive, keepalive_interval h) ]

let reset_hold t = match t.hold with None -> [] | Some h -> [ Arm (Hold, h) ]

let to_idle ?notify t reason =
  let send = match notify with None -> [] | Some e -> [ Send (Msg.Notification e) ] in
  (* Timers are cancelled before the transport is torn down so no
     cancelled-timer callback can ever observe a closed connection. *)
  ( { t with st = Idle; hold = None; popen = None },
    send
    @ [ Cancel Connect_retry; Cancel Hold; Cancel Keepalive; Close_connection;
        Session_down reason ] )

let fsm_error t = to_idle ~notify:Msg.Fsm_error t "FSM error"

let handle t ev =
  match t.st, ev with
  (* ----- Idle ----------------------------------------------------- *)
  | Idle, Manual_start ->
    if t.cfg.passive then ({ t with st = Active }, [])
    else
      ( { t with st = Connect },
        [ Start_connect; Arm (Connect_retry, connect_retry) ] )
  | Idle, _ -> (t, [])
  (* ----- Connect -------------------------------------------------- *)
  | Connect, Tcp_connected ->
    ( { t with st = Open_sent },
      [ Cancel Connect_retry; Send (my_open t);
        Arm (Hold, 4.0 *. 60.0) (* large initial hold, §8.2.2 *) ] )
  | Connect, Tcp_failed ->
    ({ t with st = Active }, [ Arm (Connect_retry, connect_retry) ])
  | Connect, Timer_expired Connect_retry ->
    (t, [ Start_connect; Arm (Connect_retry, connect_retry) ])
  | Connect, Manual_stop -> to_idle t "manual stop"
  | Connect, (Tcp_closed | Msg_received _ | Protocol_error _) ->
    to_idle t "connection error in Connect"
  | Connect, (Manual_start | Timer_expired _) -> (t, [])
  (* ----- Active --------------------------------------------------- *)
  | Active, Tcp_connected ->
    ( { t with st = Open_sent },
      [ Cancel Connect_retry; Send (my_open t); Arm (Hold, 4.0 *. 60.0) ] )
  | Active, Timer_expired Connect_retry ->
    ( { t with st = Connect },
      [ Start_connect; Arm (Connect_retry, connect_retry) ] )
  | Active, Manual_stop -> to_idle t "manual stop"
  | Active, (Tcp_failed | Tcp_closed) ->
    ({ t with st = Active }, [ Arm (Connect_retry, connect_retry) ])
  | Active, (Msg_received _ | Protocol_error _) ->
    to_idle t "unexpected data in Active"
  | Active, (Manual_start | Timer_expired _) -> (t, [])
  (* ----- OpenSent ------------------------------------------------- *)
  | Open_sent, Msg_received (Msg.Open o) ->
    let hold = negotiate o in
    ( { t with st = Open_confirm; hold; popen = Some o },
      (Send Msg.Keepalive :: hold_actions hold) )
  | Open_sent, Msg_received (Msg.Notification _) ->
    to_idle t "notification in OpenSent"
  | Open_sent, Msg_received _ ->
    to_idle ~notify:Msg.Fsm_error t "non-OPEN in OpenSent"
  | Open_sent, Protocol_error e -> to_idle ~notify:e t "protocol error"
  | Open_sent, Timer_expired Hold ->
    to_idle ~notify:Msg.Hold_timer_expired t "hold timer (OpenSent)"
  | Open_sent, (Tcp_closed | Tcp_failed) ->
    ({ t with st = Active }, [ Arm (Connect_retry, connect_retry) ])
  | Open_sent, Manual_stop -> to_idle ~notify:Msg.Cease t "manual stop"
  | Open_sent, (Manual_start | Tcp_connected | Timer_expired _) -> (t, [])
  (* ----- OpenConfirm ---------------------------------------------- *)
  | Open_confirm, Msg_received Msg.Keepalive ->
    ({ t with st = Established }, Session_established :: reset_hold t)
  | Open_confirm, Msg_received (Msg.Notification _) ->
    to_idle t "notification in OpenConfirm"
  | Open_confirm, Msg_received _ -> fsm_error t
  | Open_confirm, Protocol_error e -> to_idle ~notify:e t "protocol error"
  | Open_confirm, Timer_expired Hold ->
    to_idle ~notify:Msg.Hold_timer_expired t "hold timer (OpenConfirm)"
  | Open_confirm, Timer_expired Keepalive ->
    (t, Send Msg.Keepalive :: rearm_keepalive t)
  | Open_confirm, (Tcp_closed | Tcp_failed) -> to_idle t "connection lost"
  | Open_confirm, Manual_stop -> to_idle ~notify:Msg.Cease t "manual stop"
  | Open_confirm, (Manual_start | Tcp_connected | Timer_expired Connect_retry) ->
    (t, [])
  (* ----- Established ---------------------------------------------- *)
  | Established, Msg_received (Msg.Update u) ->
    (t, Deliver_update u :: reset_hold t)
  | Established, Msg_received (Msg.Route_refresh (afi, safi)) ->
    (t, Deliver_refresh (afi, safi) :: reset_hold t)
  | Established, Msg_received Msg.Keepalive -> (t, reset_hold t)
  | Established, Msg_received (Msg.Notification _) ->
    to_idle t "notification received"
  | Established, Msg_received (Msg.Open _) -> fsm_error t
  | Established, Protocol_error e -> to_idle ~notify:e t "protocol error"
  | Established, Timer_expired Hold ->
    to_idle ~notify:Msg.Hold_timer_expired t "hold timer expired"
  | Established, Timer_expired Keepalive ->
    (t, Send Msg.Keepalive :: rearm_keepalive t)
  | Established, (Tcp_closed | Tcp_failed) -> to_idle t "connection lost"
  | Established, Manual_stop -> to_idle ~notify:Msg.Cease t "manual stop"
  | Established, (Manual_start | Tcp_connected | Timer_expired Connect_retry) ->
    (t, [])
