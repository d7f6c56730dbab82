module Engine = Bgp_sim.Engine
module Pengine = Bgp_sim.Pengine

type side = A | B

type fate = Bgp_engine.Link.fate =
  | Pass
  | Drop
  | Deliver of string * float  (* possibly-tampered payload, extra delay *)

(* ------------------------------------------------------------------ *)
(* Same-partition implementation: one engine, direct scheduling.       *)
(* This is the original channel, untouched — the single-partition      *)
(* path stays bit-identical to the pre-partitioning engine.            *)
(* ------------------------------------------------------------------ *)

type dir_state = {
  mutable receiver : string -> unit;
  mutable on_connected : unit -> unit;
  mutable on_closed : unit -> unit;
  mutable busy_until : float;  (* serialization horizon of the sender *)
  mutable carried : int;
  mutable tap : (string -> fate) option;
}

type shared = {
  engine : Engine.t;
  latency : float;
  bandwidth_bps : float;
  a : dir_state;
  b : dir_state;
  mutable opened : bool;
  mutable in_flight : int;  (* scheduled-but-undelivered payloads *)
  (* Incremented on every connect/close.  In-flight deliveries capture
     the generation at send time and are discarded if the connection
     has turned over by delivery time, so bytes from a previous
     connection can never leak into a reconnected stream. *)
  mutable generation : int;
}

(* ------------------------------------------------------------------ *)
(* Cross-partition implementation: each side lives on its own          *)
(* partition; deliveries and connection notifications travel through   *)
(* the Pengine mailbox and take effect one link latency later — which  *)
(* the conservative lookahead makes exact, not approximate.            *)
(*                                                                     *)
(* Connection state is per-side: a side's [x_open]/[x_gen] are owned   *)
(* (written and read during windows) by that side's partition only.    *)
(* Every open/close transition bumps the local generation and posts a  *)
(* mirror event to the peer at +latency, so both sides step through    *)
(* the same epoch sequence, one latency apart.  A payload captures the *)
(* sender's epoch and is delivered only if the receiver is still in    *)
(* that epoch — the cross-partition analogue of the shared channel's   *)
(* generation check (bytes of a dead connection die on the wire).      *)
(* ------------------------------------------------------------------ *)

type xside = {
  x_part : int;
  mutable x_receiver : string -> unit;
  mutable x_on_connected : unit -> unit;
  mutable x_on_closed : unit -> unit;
  mutable x_busy_until : float;
  mutable x_carried : int;
  mutable x_tap : (string -> fate) option;
  mutable x_open : bool;
  mutable x_gen : int;  (* epoch transitions this side has processed *)
}

type cross = {
  xc_pe : Pengine.t;
  xc_latency : float;
  xc_bandwidth_bps : float;
  xc_a : xside;
  xc_b : xside;
  xc_in_flight : int Atomic.t;
}

type t = Shared of shared | Cross of cross

let blank () =
  { receiver = (fun _ -> ()); on_connected = (fun () -> ());
    on_closed = (fun () -> ()); busy_until = 0.0; carried = 0; tap = None }

let check_params ~latency ~bandwidth_mbps =
  if latency < 0.0 then invalid_arg "Channel.create: negative latency";
  if bandwidth_mbps <= 0.0 then invalid_arg "Channel.create: bandwidth"

let create engine ?(latency = 1e-4) ?(bandwidth_mbps = 1000.0) () =
  check_params ~latency ~bandwidth_mbps;
  Shared
    { engine; latency; bandwidth_bps = bandwidth_mbps *. 1e6; a = blank ();
      b = blank (); opened = false; in_flight = 0; generation = 0 }

let blank_x part =
  { x_part = part; x_receiver = (fun _ -> ());
    x_on_connected = (fun () -> ()); x_on_closed = (fun () -> ());
    x_busy_until = 0.0; x_carried = 0; x_tap = None; x_open = false;
    x_gen = 0 }

let create_cross pe ~part_a ~part_b ?(latency = 1e-4)
    ?(bandwidth_mbps = 1000.0) () =
  check_params ~latency ~bandwidth_mbps;
  if part_a = part_b then create (Pengine.part pe part_a) ~latency ~bandwidth_mbps ()
  else begin
    (* Registers the lookahead; rejects latency <= 0, which a
       cross-partition link cannot have. *)
    Pengine.register_cross_latency pe latency;
    Cross
      { xc_pe = pe; xc_latency = latency;
        xc_bandwidth_bps = bandwidth_mbps *. 1e6; xc_a = blank_x part_a;
        xc_b = blank_x part_b; xc_in_flight = Atomic.make 0 }
  end

let this_s t = function A -> t.a | B -> t.b
let other_s t = function A -> t.b | B -> t.a
let this_x c = function A -> c.xc_a | B -> c.xc_b
let other_x c = function A -> c.xc_b | B -> c.xc_a

let set_receiver t side f =
  match t with
  | Shared s -> (this_s s side).receiver <- f
  | Cross c -> (this_x c side).x_receiver <- f

let set_on_connected t side f =
  match t with
  | Shared s -> (this_s s side).on_connected <- f
  | Cross c -> (this_x c side).x_on_connected <- f

let set_on_closed t side f =
  match t with
  | Shared s -> (this_s s side).on_closed <- f
  | Cross c -> (this_x c side).x_on_closed <- f

let set_tap t side f =
  match t with
  | Shared s -> (this_s s side).tap <- Some f
  | Cross c -> (this_x c side).x_tap <- Some f

let clear_tap t side =
  match t with
  | Shared s -> (this_s s side).tap <- None
  | Cross c -> (this_x c side).x_tap <- None

(* --- connection management ---------------------------------------- *)

let shared_connect t =
  if not t.opened then begin
    t.opened <- true;
    t.generation <- t.generation + 1;
    ignore
      (Engine.schedule t.engine ~delay:t.latency (fun () ->
           if t.opened then begin
             t.a.on_connected ();
             t.b.on_connected ()
           end))
  end

let cross_connect c side =
  let s = this_x c side and r = other_x c side in
  if not s.x_open then begin
    s.x_open <- true;
    s.x_gen <- s.x_gen + 1;
    let eng = Pengine.part c.xc_pe s.x_part in
    let at = Engine.now eng +. c.xc_latency in
    ignore
      (Engine.schedule_at eng ~time:at (fun () ->
           if s.x_open then s.x_on_connected ()));
    Pengine.post c.xc_pe ~src:s.x_part ~dst:r.x_part ~time:at (fun () ->
        if not r.x_open then begin
          r.x_open <- true;
          r.x_gen <- r.x_gen + 1;
          r.x_on_connected ()
        end)
  end

let connect_from t side =
  match t with Shared s -> shared_connect s | Cross c -> cross_connect c side

let connect t = connect_from t A

let shared_close t =
  if t.opened then begin
    t.opened <- false;
    t.generation <- t.generation + 1;
    t.a.busy_until <- 0.0;
    t.b.busy_until <- 0.0;
    ignore
      (Engine.schedule t.engine ~delay:t.latency (fun () ->
           t.a.on_closed ();
           t.b.on_closed ()))
  end

let cross_close c side =
  let s = this_x c side and r = other_x c side in
  if s.x_open then begin
    s.x_open <- false;
    s.x_gen <- s.x_gen + 1;
    s.x_busy_until <- 0.0;
    let eng = Pengine.part c.xc_pe s.x_part in
    let at = Engine.now eng +. c.xc_latency in
    ignore (Engine.schedule_at eng ~time:at (fun () -> s.x_on_closed ()));
    Pengine.post c.xc_pe ~src:s.x_part ~dst:r.x_part ~time:at (fun () ->
        if r.x_open then begin
          r.x_open <- false;
          r.x_gen <- r.x_gen + 1;
          r.x_busy_until <- 0.0;
          r.x_on_closed ()
        end)
  end

let close_from t side =
  match t with Shared s -> shared_close s | Cross c -> cross_close c side

let close t = close_from t A

let is_open = function
  | Shared s -> s.opened
  | Cross c -> c.xc_a.x_open || c.xc_b.x_open

(* --- data path ----------------------------------------------------- *)

let shared_send t side bytes =
  if t.opened && bytes <> "" then begin
    let src = this_s t side in
    let dst = other_s t side in
    (* Serialization is charged for the bytes the sender transmitted;
       what the tap does to them downstream does not refund it. *)
    src.carried <- src.carried + String.length bytes;
    let now = Engine.now t.engine in
    let start = Float.max now src.busy_until in
    let ser = float_of_int (8 * String.length bytes) /. t.bandwidth_bps in
    src.busy_until <- start +. ser;
    let fate = match src.tap with None -> Pass | Some f -> f bytes in
    match fate with
    | Drop -> ()
    | Pass | Deliver _ ->
      let bytes, extra =
        match fate with Deliver (b, d) -> (b, d) | _ -> (bytes, 0.0)
      in
      let deliver_at = start +. ser +. t.latency +. extra in
      let gen = t.generation in
      t.in_flight <- t.in_flight + 1;
      ignore
        (Engine.schedule_at t.engine ~time:deliver_at (fun () ->
             t.in_flight <- t.in_flight - 1;
             if t.opened && t.generation = gen then dst.receiver bytes))
  end

let cross_send c side bytes =
  let s = this_x c side in
  if s.x_open && bytes <> "" then begin
    let r = other_x c side in
    s.x_carried <- s.x_carried + String.length bytes;
    let now = Engine.now (Pengine.part c.xc_pe s.x_part) in
    let start = Float.max now s.x_busy_until in
    let ser = float_of_int (8 * String.length bytes) /. c.xc_bandwidth_bps in
    s.x_busy_until <- start +. ser;
    let fate = match s.x_tap with None -> Pass | Some f -> f bytes in
    match fate with
    | Drop -> ()
    | Pass | Deliver _ ->
      let bytes, extra =
        match fate with Deliver (b, d) -> (b, d) | _ -> (bytes, 0.0)
      in
      let deliver_at = start +. ser +. c.xc_latency +. extra in
      let gen = s.x_gen in
      Atomic.incr c.xc_in_flight;
      Pengine.post c.xc_pe ~src:s.x_part ~dst:r.x_part ~time:deliver_at
        (fun () ->
          Atomic.decr c.xc_in_flight;
          if r.x_open && r.x_gen = gen then r.x_receiver bytes)
  end

let send t side bytes =
  match t with
  | Shared s -> shared_send s side bytes
  | Cross c -> cross_send c side bytes

let endpoint t side =
  { Bgp_engine.Link.send = (fun bytes -> send t side bytes);
    start_connect = (fun () -> connect_from t side);
    close = (fun () -> close_from t side);
    set_receiver = set_receiver t side;
    set_on_connected = set_on_connected t side;
    set_on_closed = set_on_closed t side;
    set_on_failed = (fun _ -> ());
    set_tap =
      (function Some f -> set_tap t side f | None -> clear_tap t side) }

let bytes_carried t side =
  match t with
  | Shared s -> (this_s s side).carried
  | Cross c -> (this_x c side).x_carried

let in_flight = function
  | Shared s -> s.in_flight
  | Cross c -> Atomic.get c.xc_in_flight
