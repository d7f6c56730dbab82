module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link

type role = Connector of Unix.sockaddr | Listener

(* One endpoint's connection state. *)
type conn = {
  loop : Event_loop.t;
  clock : Clock.t;  (* the loop's: connection events *)
  role : role;
  mutable fd : Unix.file_descr option;
  out : Ring.t;  (* queued output not yet accepted by the socket *)
  mutable dirty : bool;  (* a flush of [out] is queued for this turn *)
  read_buf : Bytes.t;  (* per-connection: concurrent links never alias *)
  mutable receiver : string -> unit;
  mutable on_connected : unit -> unit;
  mutable on_closed : unit -> unit;
  mutable on_failed : unit -> unit;
  mutable tap : (string -> Link.fate) option;
}

let make_conn loop role =
  { loop; clock = Event_loop.clock loop; role; fd = None;
    out = Ring.create (); dirty = false; read_buf = Bytes.create 65536;
    receiver = (fun _ -> ());
    on_connected = (fun () -> ()); on_closed = (fun () -> ());
    on_failed = (fun () -> ()); tap = None }

(* Write what the socket accepts now, without waiting for it to drain:
   the last words before a close (a NOTIFICATION) go out, and whatever
   does not fit is dropped with the connection. *)
let write_out fd out =
  try
    while not (Ring.is_empty out) do
      let buf, off, len = Ring.contiguous out in
      Ring.consume out (Unix.write fd buf off len)
    done
  with Unix.Unix_error (_, _, _) -> ()

let teardown ?(notify = true) c =
  match c.fd with
  | None -> ()
  | Some fd ->
    Event_loop.unwatch c.loop fd;
    write_out fd c.out;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    c.fd <- None;
    Ring.clear c.out;
    (* Deliver the close from the pump, as the simulated channel does,
       so a session never observes its own [close] reentrantly. *)
    if notify then Clock.post c.clock (fun () -> c.on_closed ())

(* Drain the ring: each [Unix.write] takes the whole contiguous head
   segment — every message coalesced since the last drain goes out in
   one syscall — and a partial write just advances the head (O(1); the
   old string queue re-copied the remainder per write, O(n²) under
   backpressure). *)
let rec flush_out c =
  match c.fd with
  | None -> Ring.clear c.out
  | Some fd ->
    if not (Ring.is_empty c.out) then begin
      let buf, off, len = Ring.contiguous c.out in
      match Unix.write fd buf off len with
      | n ->
        Ring.consume c.out n;
        if Ring.is_empty c.out then Event_loop.unwatch_write c.loop fd
        else if n = len then
          (* Wrapped tail segment and the socket is still accepting. *)
          flush_out c
        else Event_loop.watch_write c.loop fd (fun () -> flush_out c)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Event_loop.watch_write c.loop fd (fun () -> flush_out c)
      | exception Unix.Unix_error (_, _, _) -> teardown c
    end

(* Sends are corked: they append to the ring, and the loop flushes each
   dirty link once per turn, so a turn's messages leave in one write. *)
let enqueue c bytes =
  if c.fd <> None && bytes <> "" then begin
    Ring.push_string c.out bytes;
    if not c.dirty then begin
      c.dirty <- true;
      Event_loop.at_flush c.loop (fun () ->
          c.dirty <- false;
          flush_out c)
    end
  end

(* One read of the installed connection [fd]: whether it delivered
   bytes, so a caller can read on until the socket has none (EAGAIN) or
   the connection is torn down (EOF or an error). *)
let read_some c fd =
  c.fd = Some fd
  &&
  match Unix.read fd c.read_buf 0 (Bytes.length c.read_buf) with
  | 0 ->
    teardown c;
    false
  | n ->
    c.receiver (Bytes.sub_string c.read_buf 0 n);
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  | exception Unix.Unix_error (_, _, _) ->
    teardown c;
    false

let handle_readable c fd () = ignore (read_some c fd)

(* Only on an endpoint with no connection: a connector dials, and a
   listener accepts, only when [c.fd] is [None]. *)
let install c fd =
  Unix.set_nonblock fd;
  c.fd <- Some fd;
  Event_loop.watch_read c.loop fd (handle_readable c fd);
  Clock.post c.clock (fun () -> if c.fd = Some fd then c.on_connected ())

let start_connect c =
  match c.role with
  | Listener -> ()
  | Connector addr ->
    if c.fd = None then begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> install c fd
      | exception Unix.Unix_error (_, _, _) ->
        (* A refused dial is TcpConnectionFails, not the loss of an
           open connection: the FSM retries from Active instead of
           going Idle for good. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Clock.post c.clock (fun () -> c.on_failed ())
    end

(* Outbound tap, consulted once per [send] — message granularity, like
   the simulated channel's tap. *)
let send c bytes =
  if c.fd <> None && bytes <> "" then
    match c.tap with
    | None -> enqueue c bytes
    | Some f -> (
      match f bytes with
      | Link.Pass -> enqueue c bytes
      | Link.Drop -> ()
      | Link.Deliver payload -> enqueue c payload)

let endpoint c =
  { Link.send = (fun bytes -> send c bytes);
    start_connect = (fun () -> start_connect c);
    close = (fun () -> teardown c);
    set_receiver = (fun f -> c.receiver <- f);
    set_on_connected = (fun f -> c.on_connected <- f);
    set_on_closed = (fun f -> c.on_closed <- f);
    set_on_failed = (fun f -> c.on_failed <- f);
    set_tap = (fun f -> c.tap <- f) }

type endpoint = { link : Link.t; port : int; dispose : unit -> unit }

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let listen loop ~port =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (loopback port);
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let c = make_conn loop Listener in
  (* One connection at a time, re-accepted after a teardown.  The link
     has one peer and never dials, so a second connection is no
     collision: it is closed at once, as RFC 4271 section 6.8 closes a
     newcomer that meets an Established session.  The installed
     connection is read out first: a peer that wrote, closed and
     redialled within one loop turn has its bytes delivered, its EOF
     seen, and its new connection accepted. *)
  Event_loop.watch_read loop lsock (fun () ->
      match Unix.accept lsock with
      | fd, _ ->
        (match c.fd with
        | Some old -> while read_some c old do () done
        | None -> ());
        if c.fd = None then install c fd
        else ( try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (_, _, _) -> ());
  let dispose () =
    teardown ~notify:false c;
    Event_loop.unwatch loop lsock;
    try Unix.close lsock with Unix.Unix_error _ -> ()
  in
  { link = endpoint c; port; dispose }

let connect loop ~port =
  let c = make_conn loop (Connector (loopback port)) in
  { link = endpoint c; port; dispose = (fun () -> teardown ~notify:false c) }

type t = {
  connector : Link.t;
  listener : Link.t;
  dispose : unit -> unit;
}

let pair loop =
  let l = listen loop ~port:0 in
  let c = connect loop ~port:l.port in
  { connector = c.link; listener = l.link;
    dispose =
      (fun () ->
        c.dispose ();
        l.dispose ()) }
