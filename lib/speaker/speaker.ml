module Link = Bgp_engine.Link
module Session = Bgp_fsm.Session
module Msg = Bgp_wire.Msg

type t = {
  mutable session : Session.t option;  (* set once in [create] *)
  mutable established_cb : unit -> unit;
  mutable updates_received : int;
  mutable prefixes_received : int;
  mutable withdrawals_received : int;
  mutable sessions_lost : int;
  received : (Bgp_addr.Prefix.t, Bgp_route.Attrs.Interned.t) Hashtbl.t;
  mutable update_observer : Msg.update -> unit;
}

let session t =
  match t.session with
  | Some s -> s
  | None -> invalid_arg "Speaker: not initialized"

let create clock ~asn ~router_id ~(link : Link.t) =
  let cfg = Bgp_fsm.Fsm.default_config ~asn ~router_id in
  let t =
    { session = None; established_cb = (fun () -> ()); updates_received = 0;
      prefixes_received = 0; withdrawals_received = 0; sessions_lost = 0;
      received = Hashtbl.create 1024; update_observer = ignore }
  in
  let hooks =
    { Session.null_hooks with
      Session.on_update =
        (fun u ->
          t.updates_received <- t.updates_received + 1;
          t.prefixes_received <- t.prefixes_received + List.length u.Msg.nlri;
          t.withdrawals_received <-
            t.withdrawals_received + List.length u.Msg.withdrawn;
          List.iter (fun p -> Hashtbl.remove t.received p) u.Msg.withdrawn;
          Option.iter
            (fun attrs ->
              List.iter (fun p -> Hashtbl.replace t.received p attrs) u.Msg.nlri)
            u.Msg.attrs;
          t.update_observer u);
      on_established = (fun () -> t.established_cb ());
      on_down = (fun _reason -> t.sessions_lost <- t.sessions_lost + 1) }
  in
  t.session <- Some (Session.create cfg clock link hooks);
  t

let start t = Session.start (session t)
let stop t = Session.stop (session t)
let state t = Session.state (session t)
let established t = state t = Bgp_fsm.Fsm.Established
let on_established t cb = t.established_cb <- cb

let require_established t name =
  if not (established t) then
    invalid_arg (Printf.sprintf "Speaker.%s: session not established" name)

(* Pack [prefixes] into UPDATEs of at most [packing] prefixes that fit
   the wire, and send them. *)
let send_packed t name ~packing attrs prefixes =
  require_established t name;
  let msgs =
    Bgp_wire.Codec.updates ~max_count:packing attrs (Array.to_list prefixes)
  in
  List.iter (fun msg -> ignore (Session.send (session t) msg)) msgs;
  List.length msgs

let announce t ~packing ~attrs prefixes =
  (* Intern once for the whole burst; every message shares the handle. *)
  send_packed t "announce" ~packing
    (Some (Bgp_route.Attrs.Interned.intern attrs))
    prefixes

let withdraw t ~packing prefixes = send_packed t "withdraw" ~packing None prefixes

let send_update t msg =
  require_established t "send_update";
  (match msg with
  | Msg.Update _ -> ()
  | m -> invalid_arg (Printf.sprintf "Speaker.send_update: %s" (Msg.kind_name m)));
  Session.send (session t) msg

let request_refresh t =
  require_established t "request_refresh";
  ignore (Session.send (session t) Msg.route_refresh)

let set_update_observer t f = t.update_observer <- f
let sessions_lost t = t.sessions_lost
let updates_received t = t.updates_received
let prefixes_received t = t.prefixes_received
let withdrawals_received t = t.withdrawals_received
let received_prefix_set t = t.received
