module Msg = Bgp_wire.Msg

type timer_service = { arm_timer : float -> (unit -> unit) -> unit -> unit }

let timer_service_of clock =
  { arm_timer =
      (fun delay fn ->
        let h = Bgp_engine.Clock.schedule clock ~delay fn in
        fun () -> Bgp_engine.Clock.cancel h) }

type io = {
  out_bytes : string -> unit;
  start_connect : unit -> unit;
  close : unit -> unit;
}

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
  timers : timer_service;
  io : io;
  hooks : hooks;
  framer : Framer.t;
  mutable fsm : Fsm.t;
  cancels : (Fsm.timer, unit -> unit) Hashtbl.t;
  mutable closed_flag : bool;  (* transport currently closed *)
  mutable on_transition : Fsm.state -> Fsm.state -> unit;
}

let create cfg timers io hooks =
  { timers; io; hooks; framer = Framer.create (); fsm = Fsm.create cfg;
    cancels = Hashtbl.create 4; closed_flag = true;
    on_transition = (fun _ _ -> ()) }

let set_transition_observer t f = t.on_transition <- f

let state t = Fsm.state t.fsm
let fsm t = t.fsm

let cancel_timer t timer =
  match Hashtbl.find_opt t.cancels timer with
  | Some cancel ->
    cancel ();
    Hashtbl.remove t.cancels timer
  | None -> ()

let transmit t msg =
  let wire = Bgp_wire.Codec.encode msg in
  t.hooks.on_tx_msg msg (String.length wire);
  t.io.out_bytes wire

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
    t.io.start_connect ()
  | Fsm.Close_connection ->
    if not t.closed_flag then begin
      t.closed_flag <- true;
      t.io.close ()
    end
  | Fsm.Send msg -> transmit t msg
  | Fsm.Arm (timer, delay) ->
    cancel_timer t timer;
    let cancel =
      t.timers.arm_timer delay (fun () ->
          Hashtbl.remove t.cancels timer;
          dispatch t (Fsm.Timer_expired timer))
    in
    Hashtbl.replace t.cancels timer cancel
  | Fsm.Cancel timer -> cancel_timer t timer
  | Fsm.Deliver_update u -> t.hooks.on_update u
  | Fsm.Deliver_refresh (afi, safi) -> t.hooks.on_refresh afi safi
  | Fsm.Session_established -> t.hooks.on_established ()
  | Fsm.Session_down reason -> t.hooks.on_down reason

let start t = dispatch t Fsm.Manual_start
let stop t = dispatch t Fsm.Manual_stop

let connected t =
  t.closed_flag <- false;
  Framer.reset t.framer;
  dispatch t Fsm.Tcp_connected

let failed t = dispatch t Fsm.Tcp_failed

let closed t =
  t.closed_flag <- true;
  dispatch t Fsm.Tcp_closed

let feed t bytes =
  Framer.feed t.framer bytes;
  let rec drain () =
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
        drain ()
      | Framer.Error e -> dispatch t (Fsm.Protocol_error e))
  in
  drain ()

let send t msg =
  match Fsm.state t.fsm with
  | Fsm.Established ->
    transmit t msg;
    true
  | _ -> false

let of_link cfg timers (link : Bgp_engine.Link.t) hooks =
  (* A passive (listening) side never initiates the transport
     connection, even if the FSM were to ask. *)
  let io =
    { out_bytes = link.send;
      start_connect =
        (if cfg.Fsm.passive then fun () -> () else link.start_connect);
      close = link.close }
  in
  let t = create cfg timers io hooks in
  link.set_receiver (feed t);
  link.set_on_connected (fun () -> connected t);
  link.set_on_closed (fun () -> closed t);
  link.set_on_failed (fun () -> failed t);
  t
