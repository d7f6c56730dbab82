type handle = Engine.handle

type t = {
  label : string;
  c_now : unit -> float;
  c_schedule_at : time:float -> (unit -> unit) -> handle;
  c_post : (unit -> unit) -> unit;
  c_run : cond:(unit -> bool) -> step:float -> bool;
}

let make ~label ~now ~schedule_at ~post ~run_window =
  { label; c_now = now; c_schedule_at = schedule_at; c_post = post;
    c_run = run_window }

let of_engine e =
  make ~label:"sim"
    ~now:(fun () -> Engine.now e)
    ~schedule_at:(Engine.schedule_at e)
    ~post:(fun fn -> ignore (Engine.schedule e ~delay:0.0 fn))
    ~run_window:(fun ~cond ~step ->
      (* A simulated clock always consumes the whole window: virtual
         time is free, and burning it keeps event ordering — and hence
         byte-identical benchmark output — independent of what [cond]
         observes. *)
      Engine.run ~until:(Engine.now e +. step) e;
      cond ())

let label t = t.label
let now t = t.c_now ()
let schedule_at t ~time fn = t.c_schedule_at ~time fn

let schedule t ~delay fn =
  t.c_schedule_at ~time:(t.c_now () +. Float.max 0.0 delay) fn

(* The clamp is to the clock's [now], not the heap's: a live heap's
   time lags the wall clock. *)
let rearm_at t h ~time = Engine.rearm h ~time:(Float.max time (t.c_now ()))
let rearm t h ~delay = Engine.rearm h ~time:(t.c_now () +. Float.max 0.0 delay)
let cancel = Engine.cancel
let cancelled = Engine.cancelled
let post t fn = t.c_post fn
let run t ~cond ~step = t.c_run ~cond ~step
