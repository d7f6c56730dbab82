(* The event queue is an indexed binary min-heap on (time, seq), kept as
   structure of arrays: times unboxed in a [Float.Array], seqs in an
   [int array], and each handle stores the slot it sits in.  So a
   cancel removes its entry at once, a re-arm re-keys it in place, and
   dispatching an event allocates nothing.  Seqs are unique, so the
   dispatch order is a function of the keys alone, never of the heap's
   shape. *)

(* The slot of a handle that is not in the heap. *)
let fired_slot = -1
let cancelled_slot = -2

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable hs : handle array;
  mutable len : int;
  clock_at : instant;  (* flat, so advancing time never boxes *)
  mutable seq : int;
  mutable dispatched : int;
  mutable limit : int;
  vacant : handle;  (* fills the slots past [len] *)
}

and handle = { mutable slot : int; fn : unit -> unit; eng : t }

and instant = { mutable now : float }

exception Too_many_events

let create () =
  let times = Float.Array.create 0 and clock_at = { now = 0.0 } in
  let rec t =
    { times; seqs = [||]; hs = [||]; len = 0; clock_at; seq = 0;
      dispatched = 0; limit = max_int; vacant }
  and vacant = { slot = fired_slot; fn = ignore; eng = t } in
  t

let now t = t.clock_at.now

let[@inline] precedes t i j =
  let ti = Float.Array.unsafe_get t.times i
  and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  let h = Array.unsafe_get t.hs src in
  Array.unsafe_set t.hs dst h;
  h.slot <- dst

let[@inline] place t i time seq h =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.hs i h;
  h.slot <- i

(* Both sifts lift the entry at [i] out, slide the entries it passes
   into the hole, and drop it where it belongs. *)
let sift_up t i =
  let time = Float.Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and h = Array.unsafe_get t.hs i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get t.times p in
    if time < pt || (time = pt && seq < Array.unsafe_get t.seqs p) then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  place t !i time seq h

let sift_down t i =
  let time = Float.Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and h = Array.unsafe_get t.hs i in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= t.len then moving := false
    else begin
      let c = if l + 1 < t.len && precedes t (l + 1) l then l + 1 else l in
      let ct = Float.Array.unsafe_get t.times c in
      if ct < time || (ct = time && Array.unsafe_get t.seqs c < seq) then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else moving := false
    end
  done;
  place t !i time seq h

(* An entry whose key changed may belong above or below its slot. *)
let resift t i =
  if i > 0 && precedes t i ((i - 1) / 2) then sift_up t i else sift_down t i

let grow t =
  let cap = max 16 (2 * Array.length t.hs) in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.len;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  let hs = Array.make cap t.vacant in
  Array.blit t.hs 0 hs 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.hs <- hs

(* Key [h] at [time] with the next seq, in the heap or appended to
   it.  A past [time] means the current instant. *)
let[@inline] enqueue t h time =
  let time = if time < t.clock_at.now then t.clock_at.now else time in
  t.seq <- t.seq + 1;
  if h.slot < 0 then begin
    if t.len = Array.length t.hs then grow t;
    t.len <- t.len + 1;
    h.slot <- t.len - 1
  end;
  place t h.slot time t.seq h;
  resift t h.slot

(* Take the entry at [i] out of the heap; its handle gets [slot]. *)
let remove t i ~slot =
  let h = Array.unsafe_get t.hs i in
  h.slot <- slot;
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    move t ~src:last ~dst:i;
    resift t i
  end;
  Array.unsafe_set t.hs last t.vacant

let schedule_at t ~time fn =
  let h = { slot = fired_slot; fn; eng = t } in
  enqueue t h time;
  h

let schedule t ~delay fn =
  schedule_at t ~time:(t.clock_at.now +. Float.max 0.0 delay) fn

let rearm h ~time = enqueue h.eng h time

let cancel h = if h.slot >= 0 then remove h.eng h.slot ~slot:cancelled_slot
let cancelled h = h.slot = cancelled_slot

let clear t =
  for i = 0 to t.len - 1 do
    (Array.unsafe_get t.hs i).slot <- cancelled_slot;
    Array.unsafe_set t.hs i t.vacant
  done;
  t.len <- 0

(* Dispatch the earliest event; the heap must not be empty. *)
let fire_first t =
  let h = Array.unsafe_get t.hs 0 in
  t.clock_at.now <- Float.Array.unsafe_get t.times 0;
  remove t 0 ~slot:fired_slot;
  t.dispatched <- t.dispatched + 1;
  if t.dispatched > t.limit then raise Too_many_events;
  h.fn ()

let step t =
  if t.len = 0 then false
  else begin
    fire_first t;
    true
  end

let run ?until t =
  match until with
  | None -> while t.len > 0 do fire_first t done
  | Some u ->
    while t.len > 0 && not (Float.Array.unsafe_get t.times 0 > u) do
      fire_first t
    done;
    (* Advance the clock to the bound so callers can rely on [now]
       after [run ~until]. *)
    if u > t.clock_at.now then t.clock_at.now <- u

(* Half-open variant for the partitioned engine's window drains: events
   at exactly [until] are left for the next window, where mailbox
   deliveries landing at that instant have already been enqueued. *)
let run_before t ~until =
  while t.len > 0 && Float.Array.unsafe_get t.times 0 < until do
    fire_first t
  done;
  if until > t.clock_at.now then t.clock_at.now <- until

let pending t = t.len
let dispatched t = t.dispatched
let set_event_limit t n = t.limit <- n

let next_time t =
  if t.len = 0 then None else Some (Float.Array.unsafe_get t.times 0)

let clock t =
  Bgp_engine.Clock.make ~label:"sim"
    ~now:(fun () -> t.clock_at.now)
    ~schedule_at:(fun ~time fn ->
      let h = schedule_at t ~time fn in
      Bgp_engine.Clock.handle
        ~cancel:(fun () -> cancel h)
        ~cancelled:(fun () -> cancelled h)
        ~rearm:(fun ~time -> rearm h ~time))
    ~post:(fun fn -> ignore (schedule t ~delay:0.0 fn))
    ~run_window:(fun ~cond ~step:window ->
      (* A simulated clock always consumes the whole window: virtual
         time is free, and burning it keeps event ordering — and hence
         byte-identical benchmark output — independent of what [cond]
         observes. *)
      run ~until:(t.clock_at.now +. window) t;
      cond ())
