module Engine = Bgp_sim.Engine

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
  mutable posted : (unit -> unit) list;
  (* The timer queue IS a simulation engine: deadlines and FIFO
     tie-breaks live on its (time, seq) heap and cancellation is its
     handle state machine, so live timers share cancel-after-fire and
     same-instant ordering semantics with simulated ones by
     construction rather than by parallel reimplementation.  The
     engine's virtual time is only ever advanced to [now t] — elapsed
     monotonized wall-clock seconds. *)
  timers : Engine.t;
  epoch : float;          (* gettimeofday at [create] *)
  mutable last_now : float;  (* high-water mark of elapsed seconds *)
}

let create () =
  { readers = Hashtbl.create 16; writers = Hashtbl.create 16;
    fds_r = []; fds_w = []; posted = []; timers = Engine.create ();
    epoch = Unix.gettimeofday (); last_now = 0.0 }

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

let after t delay fn =
  let h = Engine.schedule_at t.timers ~time:(now t +. Float.max 0.0 delay) fn in
  fun () -> Engine.cancel h

let post t fn = t.posted <- t.posted @ [ fn ]

let rec clock t =
  Bgp_engine.Clock.make ~label:"live"
    ~now:(fun () -> now t)
    ~schedule_at:(fun ~time fn ->
      (* Clamp to live [now], not the (lagging) heap time: a deadline
         in the past must fire after everything already due. *)
      let h = Engine.schedule_at t.timers ~time:(Float.max time (now t)) fn in
      Bgp_engine.Clock.handle
        ~cancel:(fun () -> Engine.cancel h)
        ~cancelled:(fun () -> Engine.cancelled h)
        ~rearm:(fun ~time -> Engine.rearm h ~time:(Float.max time (now t))))
    ~post:(fun fn -> post t fn)
    ~run_window:(fun ~cond ~step -> run t ~until:cond ~timeout:step)

(* Fire every timer whose deadline has passed, in deadline order with
   FIFO ordering at equal deadlines (the engine heap's invariant). *)
and run_due_timers t = Engine.run ~until:(now t) t.timers

and run_posted t =
  let posted = t.posted in
  t.posted <- [];
  List.iter (fun fn -> fn ()) posted

(* Seconds until the earliest armed timer, or [None] when no timer is
   armed.  No artificial cap: the caller sleeps until something can
   actually happen (a timer, a ready fd, or its own deadline). *)
and next_timer_in t =
  match Engine.next_time t.timers with
  | None -> None
  | Some time -> Some (Float.max 0.0 (time -. now t))

and run t ~until ~timeout =
  let deadline = now t +. timeout in
  let rec go () =
    if until () then true
    else if now t > deadline then false
    else begin
      run_posted t;
      run_due_timers t;
      if until () then true
      else begin
        let fds_r = t.fds_r in
        let fds_w = t.fds_w in
        (* Sleep until the next thing that can change state: the
           earliest timer or the run deadline.  With neither closer
           than the deadline the select blocks the whole remaining
           window instead of busy-polling. *)
        let to_deadline = Float.max 0.0 (deadline -. now t) in
        let wait =
          match next_timer_in t with
          | None -> to_deadline
          | Some d -> Float.min d to_deadline
        in
        (* [select] cannot take an infinite timeout ([timeout:infinity]
           with no timer armed); an hourly wake-up is effectively
           event-driven. *)
        let wait = Float.min wait 3600.0 in
        (match Unix.select fds_r fds_w [] wait with
        | readable, writable, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.readers fd with
              | Some fn -> fn ()
              | None -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.writers fd with
              | Some fn -> fn ()
              | None -> ())
            writable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    end
  in
  go ()

let stop_watching_all t =
  Hashtbl.reset t.readers;
  Hashtbl.reset t.writers;
  t.fds_r <- [];
  t.fds_w <- [];
  t.posted <- [];
  Engine.clear t.timers
