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
  read_buf : Bytes.t;  (* per-connection: concurrent links never alias *)
  mutable receiver : string -> unit;
  mutable on_connected : unit -> unit;
  mutable on_closed : unit -> unit;
  mutable on_failed : unit -> unit;
  mutable tap : (string -> Link.fate) option;
}

let make_conn loop role =
  { loop; clock = Event_loop.clock loop; role; fd = None;
    out = Ring.create (); read_buf = Bytes.create 65536;
    receiver = (fun _ -> ());
    on_connected = (fun () -> ()); on_closed = (fun () -> ());
    on_failed = (fun () -> ()); tap = None }

let teardown ?(notify = true) c =
  match c.fd with
  | None -> ()
  | Some fd ->
    Event_loop.unwatch c.loop fd;
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

let enqueue c bytes =
  if c.fd <> None && bytes <> "" then begin
    Ring.push_string c.out bytes;
    flush_out c
  end

let handle_readable c fd () =
  if c.fd = Some fd then begin
    match Unix.read fd c.read_buf 0 (Bytes.length c.read_buf) with
    | 0 -> teardown c
    | n -> c.receiver (Bytes.sub_string c.read_buf 0 n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> teardown c
  end

let install c fd =
  (* A lingering previous connection (e.g. a re-dial racing the old
     close) is torn down first; the new one is a fresh generation. *)
  teardown ~notify:false c;
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
  (* The passive side is always willing: new connections are accepted
     (and re-accepted after a teardown) for as long as it lives. *)
  Event_loop.watch_read loop lsock (fun () ->
      match Unix.accept lsock with
      | fd, _ -> install c fd
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
