(* Reference model for the scheduler differential test: the list-based
   [Bgp_sim.Sched] exactly as it was before its allocation-free rewrite.
   Keep it frozen; [test_sim] asserts the library matches it bit for bit. *)

module Clock = Bgp_engine.Clock

type job = { mutable remaining : float; on_done : unit -> unit }

type proc = {
  name : string;
  weight : float;
  queue : job Queue.t;
  mutable current : job option;
  mutable rate : float;  (* core-equivalents currently allotted *)
  mutable acc : float;   (* cycles consumed since last take_accounting *)
}

type trace_state = {
  tr : Bgp_trace.Tracer.t;
  tr_process : string;
  tr_cpu : Bgp_trace.Tracer.track;  (* occupancy counter track *)
  tr_tracks : (string, Bgp_trace.Tracer.track) Hashtbl.t;  (* per proc *)
  mutable tr_last_occ : (string * float) list;
}

type t = {
  clock : Clock.t;
  hz : float;
  pool : float;
  proc_cap : float;  (* one process <= one core *)
  mutable procs : proc list;  (* registration order *)
  mutable int_demand : float; (* cycles/s *)
  mutable int_rate : float;   (* core-equivalents *)
  mutable int_acc : float;
  mutable fwd_demand : float; (* cycles/s *)
  mutable fwd_weight : float;
  mutable fwd_rate : float;
  mutable fwd_acc : float;
  mutable last_settle : float;
  mutable acc_started : float;
  mutable completion : Clock.handle option;
  mutable trace : trace_state option;
}

let create clock ~hz ~pool =
  if hz <= 0.0 then invalid_arg "Sched.create: hz must be positive";
  if pool <= 0.0 then invalid_arg "Sched.create: pool must be positive";
  { clock; hz; pool; proc_cap = 1.0; procs = []; int_demand = 0.0;
    int_rate = 0.0; int_acc = 0.0; fwd_demand = 0.0; fwd_weight = 8.0;
    fwd_rate = 0.0; fwd_acc = 0.0; last_settle = 0.0; acc_started = 0.0;
    completion = None; trace = None }

let add_proc t ?(weight = 1.0) name =
  let p = { name; weight; queue = Queue.create (); current = None; rate = 0.0;
            acc = 0.0 } in
  t.procs <- t.procs @ [ p ];
  p

let proc_name p = p.name

let set_tracer t ?(process = "bgpmark") tracer =
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

let queue_length _t p =
  Queue.length p.queue + (match p.current with Some _ -> 1 | None -> 0)

let busy _t p = p.current <> None

(* Charge elapsed virtual time against running jobs and accumulators. *)
let settle t =
  let now = Clock.now t.clock in
  let dt = now -. t.last_settle in
  if dt > 0.0 then begin
    List.iter
      (fun p ->
        match p.current with
        | Some job when p.rate > 0.0 ->
          let consumed = p.rate *. t.hz *. dt in
          let consumed = Float.min consumed job.remaining in
          job.remaining <- job.remaining -. consumed;
          p.acc <- p.acc +. consumed
        | _ -> ())
      t.procs;
    t.int_acc <- t.int_acc +. (t.int_rate *. t.hz *. dt);
    t.fwd_acc <- t.fwd_acc +. (t.fwd_rate *. t.hz *. dt);
    t.last_settle <- now
  end
  else t.last_settle <- now

(* Weighted max-min water-filling of [available] core-equivalents over
   claimants (cap, weight). Returns the allocation per claimant. *)
let water_fill available claimants =
  let alloc = Array.make (Array.length claimants) 0.0 in
  let active = Array.make (Array.length claimants) true in
  let remaining = ref available in
  let continue = ref true in
  while !continue do
    continue := false;
    let wsum = ref 0.0 in
    Array.iteri
      (fun i (_, w) -> if active.(i) then wsum := !wsum +. w)
      claimants;
    if !wsum > 0.0 && !remaining > 1e-12 then begin
      let unit = !remaining /. !wsum in
      (* First pass: cap-limited claimants take their cap and leave. *)
      let capped = ref false in
      Array.iteri
        (fun i (cap, w) ->
          if active.(i) && cap <= (w *. unit) +. 1e-15 then begin
            alloc.(i) <- cap;
            active.(i) <- false;
            remaining := !remaining -. cap;
            capped := true
          end)
        claimants;
      if !capped then continue := true
      else
        (* No claimant capped: split the remainder by weight. *)
        Array.iteri
          (fun i (_, w) ->
            if active.(i) then begin
              alloc.(i) <- w *. unit;
              active.(i) <- false
            end)
          claimants
    end
  done;
  alloc

let rec recompute t =
  settle t;
  (* Interrupts first, absolutely. *)
  t.int_rate <- Float.min t.pool (t.int_demand /. t.hz);
  let available = t.pool -. t.int_rate in
  (* Interrupt handling is spread across cores, so every core — in
     particular the one running the pipeline's bottleneck process —
     loses a proportional slice.  Without this, a multi-core system
     with spare capacity would shrug off interrupt load entirely,
     which is not what the paper's Xeon does (Fig. 5). *)
  let proc_cap = t.proc_cap *. (1.0 -. (t.int_rate /. t.pool)) in
  let runnable = List.filter (fun p -> p.current <> None) t.procs in
  let claimants =
    Array.of_list
      ((t.fwd_demand /. t.hz, t.fwd_weight)
      :: List.map (fun p -> (proc_cap, p.weight)) runnable)
  in
  let alloc = water_fill available claimants in
  t.fwd_rate <- alloc.(0);
  List.iteri (fun i p -> p.rate <- alloc.(i + 1)) runnable;
  List.iter (fun p -> if p.current = None then p.rate <- 0.0) t.procs;
  (match t.trace with
  | None -> ()
  | Some ts ->
    (* Occupancy sample: per-proc service rates plus interrupt and
       forwarding allotments, deduped against the previous sample (the
       runnable set rarely changes between consecutive recomputes) and
       decimated by the tracer's sampling interval. *)
    let occ =
      List.map (fun p -> (p.name, p.rate)) t.procs
      @ [ ("interrupt", t.int_rate); ("forwarding", t.fwd_rate) ]
    in
    if occ <> ts.tr_last_occ && Bgp_trace.Tracer.sim_hit ts.tr then begin
      ts.tr_last_occ <- occ;
      Bgp_trace.Tracer.occupancy ts.tr ts.tr_cpu ~ts:(Clock.now t.clock) occ
    end);
  reschedule_completion t

and reschedule_completion t =
  Option.iter Clock.cancel t.completion;
  t.completion <- None;
  let next =
    List.fold_left
      (fun acc p ->
        match p.current with
        | Some job when p.rate > 0.0 ->
          let eta = job.remaining /. (p.rate *. t.hz) in
          (match acc with Some best when best <= eta -> acc | _ -> Some eta)
        | _ -> acc)
      None t.procs
  in
  match next with
  | None -> ()
  | Some eta ->
    t.completion <-
      Some (Clock.schedule t.clock ~delay:eta (fun () -> on_completion t))

and on_completion t =
  t.completion <- None;
  settle t;
  (* Finish every job that has (numerically) run out of cycles. *)
  let finished = ref [] in
  let went_idle = ref [] in
  List.iter
    (fun p ->
      match p.current with
      | Some job when job.remaining <= 1.0 ->
        p.acc <- p.acc +. job.remaining;
        job.remaining <- 0.0;
        p.current <- Queue.take_opt p.queue;
        if p.current = None then went_idle := p :: !went_idle;
        finished := job :: !finished
      | _ -> ())
    t.procs;
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
  List.iter (fun job -> job.on_done ()) (List.rev !finished)

let submit t p ~cycles on_done =
  let job = { remaining = Float.max cycles 0.0; on_done } in
  let was_idle = p.current = None in
  (match p.current with
  | None -> p.current <- Some job
  | Some _ -> Queue.add job p.queue);
  (match t.trace with
  | Some ts when was_idle ->
    if Bgp_trace.Tracer.sim_hit ts.tr then
      Bgp_trace.Tracer.proc_state ts.tr (trace_track ts p.name)
        ~ts:(Clock.now t.clock) ~running:true
        ~queue:(queue_length t p)
  | _ -> ());
  recompute t

let set_interrupt_demand t ~cycles_per_sec =
  t.int_demand <- Float.max 0.0 cycles_per_sec;
  recompute t

let set_forwarding_demand t ?weight ~cycles_per_sec () =
  Option.iter (fun w -> t.fwd_weight <- w) weight;
  t.fwd_demand <- Float.max 0.0 cycles_per_sec;
  recompute t

let forwarding_ratio t =
  if t.fwd_demand <= 0.0 then 1.0
  else Float.min 1.0 (t.fwd_rate *. t.hz /. t.fwd_demand)

type accounting = {
  acc_procs : (string * float) list;
  acc_interrupt : float;
  acc_forwarding : float;
  acc_elapsed : float;
}

let take_accounting t =
  settle t;
  let now = Clock.now t.clock in
  let result =
    { acc_procs = List.map (fun p -> (p.name, p.acc)) t.procs;
      acc_interrupt = t.int_acc; acc_forwarding = t.fwd_acc;
      acc_elapsed = now -. t.acc_started }
  in
  List.iter (fun p -> p.acc <- 0.0) t.procs;
  t.int_acc <- 0.0;
  t.fwd_acc <- 0.0;
  t.acc_started <- now;
  result

let total_pool t = t.pool
let clock_hz t = t.hz
