type track = { tk_id : int; tk_process : string; tk_thread : string }

type value = Int of int | Float of float | Str of string
type phase = Span | Async | Instant | Counter

type event = {
  ev_track : track;
  ev_phase : phase;
  ev_name : string;
  ev_ts : float;
  ev_dur : float;
  ev_args : (string * value) list;
}

type t = {
  cap : int;
  sample : int;
  mutable buf : event array;  (* length 0 until the first event, then [cap] *)
  mutable head : int;  (* next write position *)
  mutable total : int;  (* events ever recorded *)
  mutable sample_ctr : int;
  mutable sim_ctr : int;
  track_tbl : (string, track) Hashtbl.t;
  mutable track_rev : track list;  (* registration order, reversed *)
  last_end : (int, float) Hashtbl.t;  (* FIFO clamp per track id *)
  (* None (default): single-domain recorder, no locking on the hot
     path.  [set_shared] installs the mutex so one tracer can collect
     from every partition of a multi-domain run. *)
  mutable mu : Mutex.t option;
}

let with_lock t f =
  match t.mu with
  | None -> f ()
  | Some m ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create ?(capacity = 1 lsl 19) ?(sample = 1) () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  if sample < 1 then invalid_arg "Tracer.create: sample must be >= 1";
  { cap = capacity;
    sample;
    buf = [||];
    head = 0;
    total = 0;
    sample_ctr = 0;
    sim_ctr = 0;
    track_tbl = Hashtbl.create 16;
    track_rev = [];
    last_end = Hashtbl.create 16;
    mu = None }

let set_shared t = if t.mu = None then t.mu <- Some (Mutex.create ())

let sample_interval t = t.sample

let track t ?(process = "bgpmark") ~thread () =
  with_lock t (fun () ->
      let key = process ^ "\x00" ^ thread in
      match Hashtbl.find_opt t.track_tbl key with
      | Some tk -> tk
      | None ->
        let tk =
          { tk_id = Hashtbl.length t.track_tbl; tk_process = process;
            tk_thread = thread }
        in
        Hashtbl.add t.track_tbl key tk;
        t.track_rev <- tk :: t.track_rev;
        tk)

let track_process tk = tk.tk_process
let track_thread tk = tk.tk_thread
let track_id tk = tk.tk_id

let sample_this t =
  with_lock t (fun () ->
      let hit = t.sample_ctr = 0 in
      t.sample_ctr <- (t.sample_ctr + 1) mod t.sample;
      hit)

let sim_hit t =
  with_lock t (fun () ->
      let hit = t.sim_ctr = 0 in
      t.sim_ctr <- (t.sim_ctr + 1) mod t.sample;
      hit)

let record_unlocked t ev =
  if Array.length t.buf = 0 then t.buf <- Array.make t.cap ev;
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod t.cap;
  t.total <- t.total + 1

let record t ev = with_lock t (fun () -> record_unlocked t ev)

let span t tk ~name ~ts ~dur ?(args = []) () =
  record t
    { ev_track = tk; ev_phase = Span; ev_name = name; ev_ts = ts; ev_dur = dur;
      ev_args = args }

let span_fifo t tk ~name ~dispatch ~finish ?(args = []) () =
  with_lock t (fun () ->
      let prev =
        match Hashtbl.find_opt t.last_end tk.tk_id with
        | Some e -> e
        | None -> neg_infinity
      in
      let start = if dispatch > prev then dispatch else prev in
      let start = if start > finish then finish else start in
      Hashtbl.replace t.last_end tk.tk_id finish;
      let wait = start -. dispatch in
      let args = if wait > 0.0 then ("wait_s", Float wait) :: args else args in
      record_unlocked t
        { ev_track = tk; ev_phase = Span; ev_name = name; ev_ts = start;
          ev_dur = finish -. start; ev_args = args };
      (start, finish))

let async_span t tk ~name ~ts ~dur ?(args = []) () =
  record t
    { ev_track = tk; ev_phase = Async; ev_name = name; ev_ts = ts; ev_dur = dur;
      ev_args = args }

let instant t tk ~name ~ts ?(args = []) () =
  record t
    { ev_track = tk; ev_phase = Instant; ev_name = name; ev_ts = ts; ev_dur = 0.0;
      ev_args = args }

let counter t tk ~name ~ts values =
  record t
    { ev_track = tk; ev_phase = Counter; ev_name = name; ev_ts = ts; ev_dur = 0.0;
      ev_args = List.map (fun (k, v) -> (k, Float v)) values }

(* Typed helpers *)

let stage_args ~units ~attr_groups ~peer =
  let args = [ ("units", Int units); ("attr_groups", Int attr_groups) ] in
  if peer >= 0 then ("peer", Int peer) :: args else args

let stage_span t tk ~stage ~dispatch ~finish ~cycles ~units ~attr_groups ~peer =
  let args = ("cycles", Float cycles) :: stage_args ~units ~attr_groups ~peer in
  ignore (span_fifo t tk ~name:stage ~dispatch ~finish ~args () : float * float)

let stage_mark t tk ~stage ~ts ~units ~attr_groups ~peer =
  span t tk ~name:stage ~ts ~dur:0.0 ~args:(stage_args ~units ~attr_groups ~peer) ()

let update_span t tk ~dispatch ~finish ~peer ~prefixes ~bytes =
  let args = [ ("prefixes", Int prefixes); ("bytes", Int bytes) ] in
  let args = if peer >= 0 then ("peer", Int peer) :: args else args in
  async_span t tk ~name:"update" ~ts:dispatch ~dur:(finish -. dispatch) ~args ()

let proc_state t tk ~ts ~running ~queue =
  instant t tk
    ~name:(if running then "run" else "block")
    ~ts
    ~args:[ ("queue", Int queue) ]
    ()

let occupancy t tk ~ts values = counter t tk ~name:"occupancy" ~ts values

let fsm_transition t tk ~ts ~peer ~from_state ~to_state =
  instant t tk ~name:"fsm"
    ~ts
    ~args:[ ("peer", Str peer); ("from", Str from_state); ("to", Str to_state) ]
    ()

let fault t tk ~ts ~fate ~detail =
  let args = if detail = "" then [] else [ ("detail", Str detail) ] in
  instant t tk ~name:("fault:" ^ fate) ~ts ~args ()

(* Draining *)

let recorded t = t.total
let dropped t = if t.total > t.cap then t.total - t.cap else 0

let events t =
  let n = if t.total < t.cap then t.total else t.cap in
  let start = if t.total < t.cap then 0 else t.head in
  List.init n (fun i -> t.buf.((start + i) mod t.cap))

let tracks t = List.rev t.track_rev

let clear t =
  with_lock t (fun () ->
      t.buf <- [||];
      t.head <- 0;
      t.total <- 0;
      Hashtbl.reset t.last_end)
