type handle = {
  h_cancel : unit -> unit;
  h_cancelled : unit -> bool;
  h_rearm : time:float -> unit;
}

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

let handle ~cancel ~cancelled ~rearm =
  { h_cancel = cancel; h_cancelled = cancelled; h_rearm = rearm }

let label t = t.label
let now t = t.c_now ()
let schedule_at t ~time fn = t.c_schedule_at ~time fn

let schedule t ~delay fn =
  t.c_schedule_at ~time:(t.c_now () +. Float.max 0.0 delay) fn

let rearm_at h ~time = h.h_rearm ~time
let rearm t h ~delay = h.h_rearm ~time:(t.c_now () +. Float.max 0.0 delay)
let cancel h = h.h_cancel ()
let cancelled h = h.h_cancelled ()
let post t fn = t.c_post fn
let run t ~cond ~step = t.c_run ~cond ~step
