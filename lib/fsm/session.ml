module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Msg = Bgp_wire.Msg

type hooks = {
  on_update : Msg.update -> unit;
  on_refresh : int -> int -> unit;
  on_established : unit -> unit;
  on_down : string -> unit;
  on_tx_msg : Msg.t -> int -> unit;
  on_rx_msg : Msg.t -> int -> unit;
}

let null_hooks =
  { on_update = (fun _ -> ()); on_refresh = (fun _ _ -> ());
    on_established = (fun () -> ()); on_down = (fun _ -> ());
    on_tx_msg = (fun _ _ -> ()); on_rx_msg = (fun _ _ -> ()) }

type t = {
  clock : Clock.t;
  link : Link.t;
  passive : bool;
  hooks : hooks;
  framer : Framer.t;
  mutable fsm : Fsm.t;
  (* One handle per timer, at [timer_index]: issued on the timer's
     first arming and re-armed in place from then on. *)
  timers : Clock.handle option array;
  mutable closed_flag : bool;  (* transport currently closed *)
  mutable on_transition : Fsm.state -> Fsm.state -> unit;
}

let set_transition_observer t f = t.on_transition <- f

let state t = Fsm.state t.fsm
let fsm t = t.fsm

let timer_index = function Fsm.Connect_retry -> 0 | Fsm.Hold -> 1 | Fsm.Keepalive -> 2

let transmit_encoded t msg wire =
  t.hooks.on_tx_msg msg (String.length wire);
  t.link.send wire

let transmit t msg = transmit_encoded t msg (Bgp_wire.Codec.encode msg)

let rec dispatch t ev =
  let before = Fsm.state t.fsm in
  let fsm', actions = Fsm.handle t.fsm ev in
  t.fsm <- fsm';
  let after = Fsm.state fsm' in
  if after <> before then t.on_transition before after;
  List.iter (perform t) actions

and perform t = function
  | Fsm.Start_connect ->
    t.closed_flag <- false;
    (* A passive (listening) side never initiates the transport
       connection, even if the FSM asks. *)
    if not t.passive then t.link.start_connect ()
  | Fsm.Close_connection ->
    if not t.closed_flag then begin
      t.closed_flag <- true;
      t.link.close ()
    end
  | Fsm.Send msg -> transmit t msg
  | Fsm.Arm (timer, delay) -> (
    let i = timer_index timer in
    match t.timers.(i) with
    | Some h -> Clock.rearm t.clock h ~delay
    | None ->
      t.timers.(i) <-
        Some
          (Clock.schedule t.clock ~delay (fun () ->
               dispatch t (Fsm.Timer_expired timer))))
  | Fsm.Cancel timer -> Option.iter Clock.cancel t.timers.(timer_index timer)
  | Fsm.Deliver_update u -> t.hooks.on_update u
  | Fsm.Deliver_refresh (afi, safi) -> t.hooks.on_refresh afi safi
  | Fsm.Session_established -> t.hooks.on_established ()
  | Fsm.Session_down reason -> t.hooks.on_down reason

let stop t = dispatch t Fsm.Manual_stop

let connected t =
  t.closed_flag <- false;
  Framer.reset t.framer;
  dispatch t Fsm.Tcp_connected

let failed t = dispatch t Fsm.Tcp_failed

let closed t =
  t.closed_flag <- true;
  dispatch t Fsm.Tcp_closed

let rec drain t =
  (* Stop draining the moment the session leaves a message-accepting
     state (an error may have reset it to Idle). *)
  match Fsm.state t.fsm with
  | Fsm.Idle | Fsm.Connect | Fsm.Active -> ()
  | Fsm.Open_sent | Fsm.Open_confirm | Fsm.Established -> (
    match Framer.next t.framer with
    | Framer.Need_more -> ()
    | Framer.Msg (msg, size) ->
      t.hooks.on_rx_msg msg size;
      dispatch t (Fsm.Msg_received msg);
      drain t
    | Framer.Error e -> dispatch t (Fsm.Protocol_error e))

let feed t bytes =
  Framer.feed t.framer bytes;
  drain t

(* A listener can accept the peer's connection while the session is
   still Idle (inside a restart delay), where the FSM drops
   [Tcp_connected]; starting a passive session over a transport that is
   already up proceeds as connected and reads what the peer has sent
   since, without resetting the framer. *)
let start t =
  dispatch t Fsm.Manual_start;
  if t.passive && (not t.closed_flag) && Fsm.state t.fsm = Fsm.Active then begin
    dispatch t Fsm.Tcp_connected;
    drain t
  end

let send t msg =
  match Fsm.state t.fsm with
  | Fsm.Established ->
    transmit t msg;
    true
  | _ -> false

let send_encoded t msg wire =
  match Fsm.state t.fsm with
  | Fsm.Established ->
    transmit_encoded t msg wire;
    true
  | _ -> false

let create cfg clock (link : Link.t) hooks =
  let t =
    { clock; link; passive = cfg.Fsm.passive; hooks; framer = Framer.create ();
      fsm = Fsm.create cfg; timers = Array.make 3 None; closed_flag = true;
      on_transition = (fun _ _ -> ()) }
  in
  link.set_receiver (feed t);
  link.set_on_connected (fun () -> connected t);
  link.set_on_closed (fun () -> closed t);
  link.set_on_failed (fun () -> failed t);
  t
