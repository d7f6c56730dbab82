module Clock = Bgp_engine.Clock

(* Every step — submit, recompute, completion — runs once per pipeline
   stage per UPDATE, so the untraced path allocates nothing beyond
   re-arming its completion event: floats live in all-float records
   (stored flat, so writes never box), procs in an array, water-filling
   in preallocated scratch, and iteration in [for] loops.  The float
   operations must keep their order: test/sched_ref.ml is the reference
   model whose timings and accounting they match bit for bit. *)

(* [Float.min]/[Float.max] with the stdlib's result for every non-NaN
   input, inlined so no call boxes the arguments. *)
let[@inline] fmin (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then x else y

let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then y else x

type meter = {
  weight : float;
  mutable rate : float;       (* core-equivalents currently allotted *)
  mutable acc : float;        (* cycles consumed since last take_accounting *)
  mutable remaining : float;  (* cycles the running job still needs *)
}

let nop () = ()

type proc = {
  name : string;
  m : meter;
  (* FIFO ring of jobs, callbacks and cycle counts side by side; the
     job at [head] is the running one. *)
  mutable fns : (unit -> unit) array;
  mutable cycles : Float.Array.t;
  mutable head : int;
  mutable len : int;
}

type trace_state = {
  tr : Bgp_trace.Tracer.t;
  tr_process : string;
  tr_cpu : Bgp_trace.Tracer.track;  (* occupancy counter track *)
  tr_tracks : (string, Bgp_trace.Tracer.track) Hashtbl.t;  (* per proc *)
  mutable tr_last_occ : (string * float) list;
}

type cpu = {
  hz : float;
  pool : float;
  proc_cap : float;  (* one process <= one core *)
  mutable int_demand : float; (* cycles/s *)
  mutable int_rate : float;   (* core-equivalents *)
  mutable int_acc : float;
  mutable fwd_demand : float; (* cycles/s *)
  mutable fwd_weight : float;
  mutable fwd_rate : float;
  mutable fwd_acc : float;
  mutable last_settle : float;
  mutable acc_started : float;
}

type t = {
  clock : Clock.t;
  c : cpu;
  mutable procs : proc array;  (* registration order *)
  (* Water-filling scratch, one slot per claimant: forwarding, then
     the runnable procs in registration order. *)
  mutable caps : Float.Array.t;
  mutable wts : Float.Array.t;
  mutable alloc : Float.Array.t;
  mutable active : bool array;
  mutable finished : (unit -> unit) array;  (* one completion per proc *)
  mutable completion : Clock.handle option;  (* issued once, then re-armed *)
  mutable fire : unit -> unit;        (* its callback, built once *)
  mutable trace : trace_state option;
}

let add_proc t ?(weight = 1.0) name =
  let p =
    { name; m = { weight; rate = 0.0; acc = 0.0; remaining = 0.0 };
      fns = [||]; cycles = Float.Array.create 0; head = 0; len = 0 }
  in
  t.procs <- Array.append t.procs [| p |];
  let n = Array.length t.procs in
  t.caps <- Float.Array.make (n + 1) 0.0;
  t.wts <- Float.Array.make (n + 1) 0.0;
  t.alloc <- Float.Array.make (n + 1) 0.0;
  t.active <- Array.make (n + 1) false;
  t.finished <- Array.append t.finished [| nop |];
  p

let set_tracer t ~process tracer =
  let module T = Bgp_trace.Tracer in
  t.trace <-
    Some
      { tr = tracer; tr_process = process;
        tr_cpu = T.track tracer ~process ~thread:"cpu" ();
        tr_tracks = Hashtbl.create 8; tr_last_occ = [] }

let trace_track ts name =
  match Hashtbl.find_opt ts.tr_tracks name with
  | Some tk -> tk
  | None ->
    let tk =
      Bgp_trace.Tracer.track ts.tr ~process:ts.tr_process ~thread:name ()
    in
    Hashtbl.add ts.tr_tracks name tk;
    tk

let queue_length _t p = p.len

let push p cycles fn =
  let cap = Array.length p.fns in
  if p.len = cap then begin
    let cap' = max 4 (2 * cap) in
    let fns = Array.make cap' nop and cyc = Float.Array.make cap' 0.0 in
    for i = 0 to p.len - 1 do
      let j = (p.head + i) mod cap in
      fns.(i) <- p.fns.(j);
      Float.Array.set cyc i (Float.Array.get p.cycles j)
    done;
    p.fns <- fns;
    p.cycles <- cyc;
    p.head <- 0
  end;
  let i = (p.head + p.len) mod Array.length p.fns in
  p.fns.(i) <- fn;
  Float.Array.set p.cycles i cycles;
  p.len <- p.len + 1;
  if p.len = 1 then p.m.remaining <- cycles

(* Retire the running job and return its callback; the next queued job
   (if any) starts with its full cycle count. *)
let pop p =
  let fn = p.fns.(p.head) in
  p.fns.(p.head) <- nop;
  p.head <- (p.head + 1) mod Array.length p.fns;
  p.len <- p.len - 1;
  if p.len > 0 then p.m.remaining <- Float.Array.get p.cycles p.head;
  fn

(* Charge elapsed virtual time against running jobs and accumulators. *)
let settle t =
  let c = t.c in
  let now = Clock.now t.clock in
  let dt = now -. c.last_settle in
  if dt > 0.0 then begin
    for i = 0 to Array.length t.procs - 1 do
      let p = t.procs.(i) in
      let m = p.m in
      if p.len > 0 && m.rate > 0.0 then begin
        let consumed = fmin (m.rate *. c.hz *. dt) m.remaining in
        m.remaining <- m.remaining -. consumed;
        m.acc <- m.acc +. consumed
      end
    done;
    c.int_acc <- c.int_acc +. (c.int_rate *. c.hz *. dt);
    c.fwd_acc <- c.fwd_acc +. (c.fwd_rate *. c.hz *. dt)
  end;
  c.last_settle <- now

(* Weighted max-min water-filling of [available] core-equivalents over
   the first [n] claimants of the scratch arrays ([caps], [wts]); the
   allocation per claimant lands in [alloc]. *)
let[@inline] water_fill t n available =
  let caps = t.caps and wts = t.wts and alloc = t.alloc
  and active = t.active in
  for i = 0 to n - 1 do
    Float.Array.set alloc i 0.0;
    active.(i) <- true
  done;
  let remaining = ref available in
  let continue = ref true in
  while !continue do
    continue := false;
    let wsum = ref 0.0 in
    for i = 0 to n - 1 do
      if active.(i) then wsum := !wsum +. Float.Array.get wts i
    done;
    if !wsum > 0.0 && !remaining > 1e-12 then begin
      let unit = !remaining /. !wsum in
      (* First pass: cap-limited claimants take their cap and leave. *)
      let capped = ref false in
      for i = 0 to n - 1 do
        let cap = Float.Array.get caps i in
        if active.(i) && cap <= (Float.Array.get wts i *. unit) +. 1e-15
        then begin
          Float.Array.set alloc i cap;
          active.(i) <- false;
          remaining := !remaining -. cap;
          capped := true
        end
      done;
      if !capped then continue := true
      else
        (* No claimant capped: split the remainder by weight. *)
        for i = 0 to n - 1 do
          if active.(i) then begin
            Float.Array.set alloc i (Float.Array.get wts i *. unit);
            active.(i) <- false
          end
        done
    end
  done

let rec recompute t =
  settle t;
  let c = t.c in
  (* Interrupts first, absolutely. *)
  c.int_rate <- fmin c.pool (c.int_demand /. c.hz);
  let available = c.pool -. c.int_rate in
  (* Interrupt handling is spread across cores, so every core — in
     particular the one running the pipeline's bottleneck process —
     loses a proportional slice.  Without this, a multi-core system
     with spare capacity would shrug off interrupt load entirely,
     which is not what the paper's Xeon does (Fig. 5). *)
  let proc_cap = c.proc_cap *. (1.0 -. (c.int_rate /. c.pool)) in
  Float.Array.set t.caps 0 (c.fwd_demand /. c.hz);
  Float.Array.set t.wts 0 c.fwd_weight;
  let n = ref 1 in
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    if p.len > 0 then begin
      Float.Array.set t.caps !n proc_cap;
      Float.Array.set t.wts !n p.m.weight;
      incr n
    end
  done;
  water_fill t !n available;
  c.fwd_rate <- Float.Array.get t.alloc 0;
  let n = ref 1 in
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    if p.len > 0 then begin
      p.m.rate <- Float.Array.get t.alloc !n;
      incr n
    end
    else p.m.rate <- 0.0
  done;
  (match t.trace with
  | None -> ()
  | Some ts ->
    (* Occupancy sample: per-proc service rates plus interrupt and
       forwarding allotments, deduped against the previous sample (the
       runnable set rarely changes between consecutive recomputes) and
       decimated by the tracer's sampling interval. *)
    let occ =
      Array.fold_right (fun p acc -> (p.name, p.m.rate) :: acc) t.procs
        [ ("interrupt", c.int_rate); ("forwarding", c.fwd_rate) ]
    in
    if occ <> ts.tr_last_occ && Bgp_trace.Tracer.sim_hit ts.tr then begin
      ts.tr_last_occ <- occ;
      Bgp_trace.Tracer.occupancy ts.tr ts.tr_cpu ~ts:(Clock.now t.clock) occ
    end);
  reschedule_completion t

(* The completion event is re-armed on every recompute, even when its
   instant does not move: re-arming gives it the FIFO seq of a fresh
   schedule, and that seq is part of the event order the benchmark's
   outputs depend on. *)
and reschedule_completion t =
  let hz = t.c.hz in
  let best = ref 0.0 and found = ref false in
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    let m = p.m in
    if p.len > 0 && m.rate > 0.0 then begin
      let eta = m.remaining /. (m.rate *. hz) in
      if not (!found && !best <= eta) then begin
        best := eta;
        found := true
      end
    end
  done;
  match t.completion with
  | Some h when not !found -> Clock.cancel h
  | Some h -> Clock.rearm t.clock h ~delay:!best
  | None when !found ->
    t.completion <- Some (Clock.schedule t.clock ~delay:!best t.fire)
  | None -> ()

(* Completions fire from the clock's pump, never from inside a job
   callback, so the [finished] scratch is never in use twice. *)
and on_completion t =
  settle t;
  (* Finish every job that has (numerically) run out of cycles. *)
  let k = ref 0 in
  let went_idle = ref [] in
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    let m = p.m in
    if p.len > 0 && m.remaining <= 1.0 then begin
      m.acc <- m.acc +. m.remaining;
      t.finished.(!k) <- pop p;
      incr k;
      if p.len = 0 && Option.is_some t.trace then went_idle := p :: !went_idle
    end
  done;
  (match t.trace with
  | Some ts ->
    let now = Clock.now t.clock in
    List.iter
      (fun p ->
        if Bgp_trace.Tracer.sim_hit ts.tr then
          Bgp_trace.Tracer.proc_state ts.tr (trace_track ts p.name) ~ts:now
            ~running:false ~queue:0)
      (List.rev !went_idle)
  | None -> ());
  (* Callbacks may submit new work (which recomputes again); run them
     after the scheduler state is consistent. *)
  recompute t;
  for i = 0 to !k - 1 do
    let fn = t.finished.(i) in
    t.finished.(i) <- nop;
    fn ()
  done

let create clock ~hz ~pool =
  if hz <= 0.0 then invalid_arg "Sched.create: hz must be positive";
  if pool <= 0.0 then invalid_arg "Sched.create: pool must be positive";
  let t =
    { clock;
      c =
        { hz; pool; proc_cap = 1.0; int_demand = 0.0; int_rate = 0.0;
          int_acc = 0.0; fwd_demand = 0.0; fwd_weight = 8.0; fwd_rate = 0.0;
          fwd_acc = 0.0; last_settle = 0.0; acc_started = 0.0 };
      procs = [||]; caps = Float.Array.make 1 0.0;
      wts = Float.Array.make 1 0.0; alloc = Float.Array.make 1 0.0;
      active = [| false |]; finished = [||]; completion = None;
      fire = nop; trace = None }
  in
  t.fire <- (fun () -> on_completion t);
  t

let submit t p ~cycles on_done =
  push p (fmax cycles 0.0) on_done;
  (match t.trace with
  | Some ts when p.len = 1 ->
    if Bgp_trace.Tracer.sim_hit ts.tr then
      Bgp_trace.Tracer.proc_state ts.tr (trace_track ts p.name)
        ~ts:(Clock.now t.clock) ~running:true ~queue:p.len
  | _ -> ());
  recompute t

let set_interrupt_demand t ~cycles_per_sec =
  t.c.int_demand <- fmax 0.0 cycles_per_sec;
  recompute t

let set_forwarding_demand t ?weight ~cycles_per_sec () =
  Option.iter (fun w -> t.c.fwd_weight <- w) weight;
  t.c.fwd_demand <- fmax 0.0 cycles_per_sec;
  recompute t

let forwarding_ratio t =
  let c = t.c in
  if c.fwd_demand <= 0.0 then 1.0
  else fmin 1.0 (c.fwd_rate *. c.hz /. c.fwd_demand)

type accounting = {
  acc_procs : (string * float) list;
  acc_interrupt : float;
  acc_forwarding : float;
  acc_elapsed : float;
}

let take_accounting t =
  settle t;
  let c = t.c in
  let now = Clock.now t.clock in
  let result =
    { acc_procs = Array.to_list (Array.map (fun p -> (p.name, p.m.acc)) t.procs);
      acc_interrupt = c.int_acc; acc_forwarding = c.fwd_acc;
      acc_elapsed = now -. c.acc_started }
  in
  Array.iter (fun p -> p.m.acc <- 0.0) t.procs;
  c.int_acc <- 0.0;
  c.fwd_acc <- 0.0;
  c.acc_started <- now;
  result

let clock_hz t = t.c.hz
