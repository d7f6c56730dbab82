module Engine = Bgp_engine.Engine
module Clock = Bgp_engine.Clock

type t = {
  (* Watchers are hash tables with a cached descriptor list: dispatch
     is O(1) per ready fd and the select argument lists are rebuilt
     only when the watched set changes, not on every iteration.
     Re-arming an already-watched fd (the flush-under-backpressure hot
     case) touches neither list. *)
  readers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  writers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  mutable fds_r : Unix.file_descr list;
  mutable fds_w : Unix.file_descr list;
  (* The one event queue, timers and posts alike, IS a simulation
     engine: deadlines and FIFO tie-breaks live on its (time, seq)
     heap and cancellation is its handle state machine, so live events
     share their ordering and cancel semantics with simulated ones by
     construction.  The engine's virtual time is only ever advanced to
     [now t] — elapsed monotonized wall-clock seconds. *)
  timers : Engine.t;
  epoch : float;          (* gettimeofday at [create] *)
  mutable last_now : float;  (* high-water mark of elapsed seconds *)
  flushes : (unit -> unit) Queue.t;  (* dirty transports, this turn *)
}

let create () =
  (* A write to a peer that has gone away must fail with EPIPE in the
     transport that made it, which tears that one link down; the
     default SIGPIPE action would kill the whole process instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { readers = Hashtbl.create 16; writers = Hashtbl.create 16;
    fds_r = []; fds_w = []; timers = Engine.create ();
    epoch = Unix.gettimeofday (); last_now = 0.0; flushes = Queue.create () }

(* Monotonized time: [gettimeofday] can step backwards under NTP; we
   clamp to the high-water mark so timers can never un-expire.  (A
   backward step makes time stall until the wall clock catches up; a
   forward step fires pending timers early.  Without a monotonic
   clock source in the stdlib this is the best available behavior,
   and it is strictly better than raw [gettimeofday], where a
   backward step could also push armed deadlines unreachably far
   into the future.) *)
let now t =
  let raw = Unix.gettimeofday () -. t.epoch in
  if raw > t.last_now then t.last_now <- raw;
  t.last_now

let watch_read t fd fn =
  if not (Hashtbl.mem t.readers fd) then t.fds_r <- fd :: t.fds_r;
  Hashtbl.replace t.readers fd fn

let watch_write t fd fn =
  if not (Hashtbl.mem t.writers fd) then t.fds_w <- fd :: t.fds_w;
  Hashtbl.replace t.writers fd fn

let unwatch_write t fd =
  if Hashtbl.mem t.writers fd then begin
    Hashtbl.remove t.writers fd;
    t.fds_w <- List.filter (fun fd' -> fd' <> fd) t.fds_w
  end

let unwatch t fd =
  if Hashtbl.mem t.readers fd then begin
    Hashtbl.remove t.readers fd;
    t.fds_r <- List.filter (fun fd' -> fd' <> fd) t.fds_r
  end;
  unwatch_write t fd

(* Clamp to live time, not the (lagging) heap time: a deadline in the
   past must fire after everything already due.  The high-water mark is
   live time as of the caller's last read ([Clock.schedule] has just
   read it to add the delay), so the clamp reads no clock of its own. *)
let schedule_at t ~time fn =
  Engine.schedule_at t.timers ~time:(Float.max time t.last_now) fn

let dispatch watchers fds =
  List.iter
    (fun fd ->
      match Hashtbl.find_opt watchers fd with Some fn -> fn () | None -> ())
    fds

let at_flush t fn = Queue.add fn t.flushes

let flush t =
  while not (Queue.is_empty t.flushes) do
    (Queue.pop t.flushes) ()
  done

(* Passes of the drain per turn.  A zero-delay event scheduled during a
   pass lands at a later [now] than the pass ran to, so a chain of them
   (posted closes and connects, a paced scheduler's completions) takes
   one pass per link.  The bound keeps a callback that re-posts itself
   forever from starving the descriptors (EXPERIMENTS.md, "Why 128
   passes"). *)
let max_passes = 128

let due t =
  match Engine.next_time t.timers with
  | Some time -> time <= now t
  | None -> false

(* Fire every event whose deadline has passed, in deadline order with
   FIFO ordering at equal deadlines, and then the events that those
   made due, until nothing is due, [until] holds or the pass bound is
   reached. *)
let drain t ~until =
  let rec pass k =
    Engine.run ~until:(now t) t.timers;
    if k > 1 && (not (until ())) && due t then pass (k - 1)
  in
  pass max_passes

let run t ~until ~timeout =
  let deadline = now t +. timeout in
  let rec go () =
    if until () then true
    else if now t > deadline then false
    else begin
      drain t ~until;
      flush t;
      if until () then true
      else begin
        (* Sleep until the next thing that can change state: the
           earliest event or the run deadline.  With neither closer
           than the deadline the select blocks the whole remaining
           window instead of busy-polling.  [select] cannot take an
           infinite timeout (no event armed, [timeout:infinity]); an
           hourly wake-up is effectively event-driven. *)
        let to_deadline = deadline -. now t in
        let wait =
          match Engine.next_time t.timers with
          | None -> to_deadline
          | Some time -> Float.min (time -. now t) to_deadline
        in
        let wait = Float.min (Float.max 0.0 wait) 3600.0 in
        (match Unix.select t.fds_r t.fds_w [] wait with
        | readable, writable, _ ->
          dispatch t.readers readable;
          dispatch t.writers writable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    end
  in
  let r = go () in
  (* Readers dispatched just before [until] came to hold may have
     queued output. *)
  flush t;
  r

let clock t =
  Clock.make ~label:"live"
    ~now:(fun () -> now t)
    ~schedule_at:(schedule_at t)
    ~post:(fun fn -> ignore (Engine.schedule_at t.timers ~time:(now t) fn))
    ~run_window:(fun ~cond ~step -> run t ~until:cond ~timeout:step)

let stop_watching_all t =
  Hashtbl.reset t.readers;
  Hashtbl.reset t.writers;
  t.fds_r <- [];
  t.fds_w <- [];
  Engine.clear t.timers
