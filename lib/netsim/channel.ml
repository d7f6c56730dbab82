module Engine = Bgp_sim.Engine
module Pengine = Bgp_sim.Pengine

type side = A | B

type fate = Bgp_engine.Link.fate =
  | Pass
  | Drop
  | Deliver of string * float  (* possibly-tampered payload, extra delay *)

(* One side of the channel.  Everything in it is owned by the domain
   draining [eng]: the side's callbacks, its sender state, and its view
   of the connection.  [gen] counts the open/close transitions this
   side has seen; a payload captures its sender's [gen] and is
   delivered only if the receiver is still in that epoch, so bytes from
   a previous connection never leak into a reconnected stream. *)
type half = {
  eng : Engine.t;
  part : int;
  mutable receiver : string -> unit;
  mutable on_connected : unit -> unit;
  mutable on_closed : unit -> unit;
  mutable busy_until : float;  (* serialization horizon of the sender *)
  mutable carried : int;
  mutable tap : (string -> fate) option;
  mutable opened : bool;
  mutable gen : int;
  mutable sent : int;     (* payloads posted towards the other side *)
  mutable arrived : int;  (* payloads delivered to this side *)
}

type t = {
  pe : Pengine.t option;  (* [Some] iff the halves live on different engines *)
  latency : float;
  bandwidth_bps : float;
  a : half;
  b : half;
}

let half eng part =
  { eng; part; receiver = (fun _ -> ()); on_connected = (fun () -> ());
    on_closed = (fun () -> ()); busy_until = 0.0; carried = 0; tap = None;
    opened = false; gen = 0; sent = 0; arrived = 0 }

let make pe (eng_a, part_a) (eng_b, part_b) ~latency ~bandwidth_mbps =
  if latency < 0.0 then invalid_arg "Channel.create: negative latency";
  if bandwidth_mbps <= 0.0 then invalid_arg "Channel.create: bandwidth";
  { pe; latency; bandwidth_bps = bandwidth_mbps *. 1e6;
    a = half eng_a part_a; b = half eng_b part_b }

let create engine ?(latency = 1e-4) ?(bandwidth_mbps = 1000.0) () =
  make None (engine, 0) (engine, 0) ~latency ~bandwidth_mbps

let create_cross pe ~part_a ~part_b ?(latency = 1e-4)
    ?(bandwidth_mbps = 1000.0) () =
  if part_a = part_b then create (Pengine.part pe part_a) ~latency ~bandwidth_mbps ()
  else begin
    let t =
      make (Some pe) (Pengine.part pe part_a, part_a)
        (Pengine.part pe part_b, part_b) ~latency ~bandwidth_mbps
    in
    (* Registers the lookahead; rejects latency <= 0, which a
       cross-partition link cannot have. *)
    Pengine.register_cross_latency pe latency;
    t
  end

let this t = function A -> t.a | B -> t.b
let other t = function A -> t.b | B -> t.a

(* Run [fn] at [time] on [dst]'s engine, from code running on [src]'s:
   a direct schedule on one engine, a mailbox post across partitions. *)
let post t ~src ~dst ~time fn =
  match t.pe with
  | None -> ignore (Engine.schedule_at dst.eng ~time fn)
  | Some pe -> Pengine.post pe ~src:src.part ~dst:dst.part ~time fn

let set_receiver t side f = (this t side).receiver <- f
let set_on_connected t side f = (this t side).on_connected <- f
let set_on_closed t side f = (this t side).on_closed <- f
let set_tap t side f = (this t side).tap <- Some f
let clear_tap t side = (this t side).tap <- None

(* --- connection management ---------------------------------------- *)

let flip h opened =
  h.opened <- opened;
  h.gen <- h.gen + 1;
  if not opened then h.busy_until <- 0.0

let notify h opened = if opened then h.on_connected () else h.on_closed ()

(* [side] opens or closes the connection; both sides hear of it one
   latency later.  A connect notification is void if its side has
   closed again by then; a close always notifies.  On one engine the
   peer flips at once and a single event tells A, then B.  Across
   partitions the peer flips when its mailbox event arrives, so a side
   keeps sending until then and those bytes die on the epoch check. *)
let turn t side opened =
  let s = this t side in
  if s.opened <> opened then begin
    let r = other t side in
    flip s opened;
    let time = Engine.now s.eng +. t.latency in
    let live () = s.opened || not opened in
    match t.pe with
    | None ->
      flip r opened;
      post t ~src:s ~dst:s ~time (fun () ->
          if live () then begin
            notify t.a opened;
            notify t.b opened
          end)
    | Some _ ->
      post t ~src:s ~dst:s ~time (fun () -> if live () then notify s opened);
      post t ~src:s ~dst:r ~time (fun () ->
          if r.opened <> opened then begin
            flip r opened;
            notify r opened
          end)
  end

let connect t = turn t A true
let close t = turn t A false
let is_open t = t.a.opened || t.b.opened

(* --- data path ----------------------------------------------------- *)

let send t side bytes =
  let s = this t side in
  if s.opened && bytes <> "" then begin
    let r = other t side in
    (* Serialization is charged for the bytes the sender transmitted;
       what the tap does to them downstream does not refund it. *)
    s.carried <- s.carried + String.length bytes;
    let start = Float.max (Engine.now s.eng) s.busy_until in
    let ser = float_of_int (8 * String.length bytes) /. t.bandwidth_bps in
    s.busy_until <- start +. ser;
    let fate = match s.tap with None -> Pass | Some f -> f bytes in
    match fate with
    | Drop -> ()
    | Pass | Deliver _ ->
      let bytes, extra =
        match fate with Deliver (b, d) -> (b, d) | _ -> (bytes, 0.0)
      in
      let gen = s.gen in
      s.sent <- s.sent + 1;
      post t ~src:s ~dst:r ~time:(start +. ser +. t.latency +. extra) (fun () ->
          r.arrived <- r.arrived + 1;
          if r.opened && r.gen = gen then r.receiver bytes)
  end

let endpoint t side =
  { Bgp_engine.Link.send = (fun bytes -> send t side bytes);
    start_connect = (fun () -> turn t side true);
    close = (fun () -> turn t side false);
    set_receiver = set_receiver t side;
    set_on_connected = set_on_connected t side;
    set_on_closed = set_on_closed t side;
    set_on_failed = (fun _ -> ());
    set_tap =
      (function Some f -> set_tap t side f | None -> clear_tap t side) }

let bytes_carried t side = (this t side).carried
let in_flight t = t.a.sent + t.b.sent - t.a.arrived - t.b.arrived
