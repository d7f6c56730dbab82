module Sched = Bgp_sim.Sched
module Metrics = Bgp_stats.Metrics
module Tracer = Bgp_trace.Tracer

type stage_id =
  | Wire_decode
  | Import_policy
  | Adj_rib_in
  | Decision
  | Fib_install
  | Export_policy
  | Mrai_pacing

let stage_name = function
  | Wire_decode -> "wire-decode"
  | Import_policy -> "import-policy"
  | Adj_rib_in -> "adj-rib-in"
  | Decision -> "decision"
  | Fib_install -> "fib-install"
  | Export_policy -> "export-policy"
  | Mrai_pacing -> "mrai-pacing"

type work = {
  mutable w_bytes : int;
  mutable w_announced : int;
  mutable w_withdrawn : int;
  mutable w_peers : int;
  mutable w_src : int;
  mutable w_candidates : int;
  mutable w_loc_changes : int;
  mutable w_fib_installs : int;
  mutable w_fib_replaces : int;
  mutable w_announcements : int;
  mutable w_mrai_buffered : int;
}

let work ~bytes ~announced ~withdrawn ~peers ~src =
  { w_bytes = bytes; w_announced = announced; w_withdrawn = withdrawn;
    w_peers = peers; w_src = src;
    w_candidates = 0; w_loc_changes = 0; w_fib_installs = 0;
    w_fib_replaces = 0; w_announcements = 0; w_mrai_buffered = 0 }

let prefixes w = w.w_announced + w.w_withdrawn
let fib_deltas w = w.w_fib_installs + w.w_fib_replaces
let policy_fanout w = prefixes w * w.w_peers

(* Distinct attribute sets in the batch, a trace annotation no cost
   hook prices: the NLRI's shared handle (a decoded UPDATE with NLRI
   always carries attributes), plus one when withdrawals ride along. *)
let attr_groups w =
  (if w.w_announced > 0 then 1 else 0) + if w.w_withdrawn > 0 then 1 else 0

(* What every architecture shares: the stage order, what each stage's
   unit counter advances by, and the one skip rule. *)
let order =
  [| Wire_decode; Import_policy; Adj_rib_in; Decision; Fib_install;
     Export_policy; Mrai_pacing |]

let units id w =
  match id with
  | Wire_decode | Adj_rib_in -> prefixes w
  | Import_policy -> policy_fanout w
  | Decision -> w.w_candidates
  | Fib_install -> fib_deltas w
  | Export_policy -> w.w_announcements
  | Mrai_pacing -> w.w_mrai_buffered

(* An update that changed no forwarding entry skips the FIB install. *)
let skip id w = match id with Fib_install -> fib_deltas w = 0 | _ -> false

type placement = Inline | Proc of string * (work -> float)

type layout = Pipelined | Fused_paced of float

type hooks = {
  on_begin : stage_id -> unit;
  on_finish : stage_id -> unit;
  on_done : unit -> unit;
}

type stage = {
  id : stage_id;
  proc_name : string option;
  cost : work -> float;
  proc : Sched.proc option;
  m_units : Metrics.counter;
  m_batches : Metrics.counter;
  m_cycles : Metrics.histogram;
}

type batch = { b_work : work; b_hooks : hooks; b_traced : bool; b_t0 : float }

(* Trace tracks: one per stage process (shared with the scheduler's
   run/block instants via name-deduplication in the tracer) plus an
   "updates" lane carrying whole-update latency spans and the
   zero-duration marks of inline stages. *)
type trace_state = {
  ts_tr : Tracer.t;
  ts_updates : Tracer.track;
  ts_stage : Tracer.track option array;  (* [None] = inline stage *)
}

type t = {
  clock : Bgp_engine.Clock.t;
  sched : Sched.t;
  layout : layout;
  stages : stage array;                (* in [order] *)
  fused_proc : Sched.proc option;      (* the single proc of a fused table *)
  pending : batch Queue.t;             (* paced batches (fused layout) *)
  mutable pacer_busy : bool;
  trace : trace_state option;
}

let no_cost _ = 0.0

let create ~clock ~sched ~metrics ~layout ?tracer ~trace_process table =
  (* One scheduler process per distinct name, in stage order. *)
  let procs = ref [] in
  let stage id =
    let name = stage_name id in
    let proc_name, cost, proc =
      match table id with
      | Inline -> (None, no_cost, None)
      | Proc (pname, cost) ->
        let p =
          match List.assoc_opt pname !procs with
          | Some p -> p
          | None ->
            let p = Sched.add_proc sched pname in
            procs := !procs @ [ (pname, p) ];
            p
        in
        (Some pname, cost, Some p)
    in
    { id; proc_name; cost; proc;
      m_units = Metrics.counter metrics ("pipeline." ^ name ^ ".units");
      m_batches = Metrics.counter metrics ("pipeline." ^ name ^ ".batches");
      m_cycles = Metrics.histogram metrics ("pipeline." ^ name ^ ".cycles") }
  in
  let stages = Array.map stage order in
  let fused_proc =
    match layout with
    | Pipelined -> None
    | Fused_paced _ -> (
      match !procs with
      | [ (_, p) ] -> Some p
      | procs ->
        invalid_arg
          (Printf.sprintf
             "Pipeline.create: fused layout needs exactly one process, got %d"
             (List.length procs)))
  in
  let trace =
    Option.map
      (fun tr ->
        { ts_tr = tr;
          ts_updates = Tracer.track tr ~process:trace_process ~thread:"updates" ();
          ts_stage =
            Array.map
              (fun st ->
                Option.map
                  (fun name ->
                    Tracer.track tr ~process:trace_process ~thread:name ())
                  st.proc_name)
              stages })
      tracer
  in
  { clock; sched; layout; stages; fused_proc;
    pending = Queue.create (); pacer_busy = false; trace }

(* Charge accounting at dispatch (cost is decided there), unit counts at
   completion (late stages' units are produced by earlier finish hooks,
   e.g. MRAI buffering happens while Export_policy emits). *)
let record_dispatch st cycles =
  Metrics.incr st.m_batches;
  Metrics.observe st.m_cycles cycles

let record_finish st w = Metrics.add st.m_units (units st.id w)

(* A job of [cycles] on the stage's process; an inline stage is
   bookkeeping with no simulated CPU, so [fn] runs at once. *)
let run_stage t st ~cycles fn =
  match st.proc with
  | None -> fn ()
  | Some p -> Sched.submit t.sched p ~cycles fn

(* --- Pipelined layout: one scheduled job per proc-bearing stage. ---- *)

let trace_update_done t b =
  match t.trace with
  | Some ts when b.b_traced ->
    Tracer.update_span ts.ts_tr ts.ts_updates ~dispatch:b.b_t0
      ~finish:(Bgp_engine.Clock.now t.clock) ~peer:b.b_work.w_src
      ~prefixes:(prefixes b.b_work) ~bytes:b.b_work.w_bytes
  | _ -> ()

let rec dispatch_from t b i =
  if i >= Array.length t.stages then begin
    trace_update_done t b;
    b.b_hooks.on_done ()
  end
  else begin
    let st = t.stages.(i) in
    if skip st.id b.b_work then dispatch_from t b (i + 1)
    else begin
      b.b_hooks.on_begin st.id;
      let cycles = st.cost b.b_work in
      record_dispatch st cycles;
      let t_dispatch =
        if b.b_traced then Bgp_engine.Clock.now t.clock else 0.0
      in
      let complete () =
        b.b_hooks.on_finish st.id;
        record_finish st b.b_work;
        (match t.trace with
        | Some ts when b.b_traced ->
          let w = b.b_work in
          let stage = stage_name st.id in
          (match ts.ts_stage.(i) with
          | Some tk ->
            Tracer.stage_span ts.ts_tr tk ~stage ~dispatch:t_dispatch
              ~finish:(Bgp_engine.Clock.now t.clock) ~cycles
              ~units:(units st.id w) ~attr_groups:(attr_groups w)
              ~peer:w.w_src
          | None ->
            Tracer.stage_mark ts.ts_tr ts.ts_updates ~stage ~ts:t_dispatch
              ~units:(units st.id w) ~attr_groups:(attr_groups w)
              ~peer:w.w_src)
        | _ -> ());
        dispatch_from t b (i + 1)
      in
      run_stage t st ~cycles complete
    end
  end

(* --- Fused layout: all stages priced into one paced job. ------------ *)

let dispatch_fused t b =
  let n = Array.length t.stages in
  let ran = Array.make n false in
  let total = ref 0.0 in
  let costs = if b.b_traced then Array.make n 0.0 else [||] in
  Array.iteri
    (fun i st ->
      if not (skip st.id b.b_work) then begin
        ran.(i) <- true;
        b.b_hooks.on_begin st.id;
        let cycles = st.cost b.b_work in
        record_dispatch st cycles;
        if b.b_traced then costs.(i) <- cycles;
        total := !total +. cycles
      end)
    t.stages;
  let proc = Option.get t.fused_proc in
  let t_dispatch = if b.b_traced then Bgp_engine.Clock.now t.clock else 0.0 in
  Sched.submit t.sched proc ~cycles:!total (fun () ->
      Array.iteri
        (fun i st ->
          if ran.(i) then begin
            b.b_hooks.on_finish st.id;
            record_finish st b.b_work
          end)
        t.stages;
      (match t.trace with
      | Some ts when b.b_traced ->
        (* One fused job slice on the single process track, with the
           stage slices nested inside it, partitioned proportionally to
           the cycles each stage was charged. *)
        let w = b.b_work in
        let tk =
          match ts.ts_stage.(0) with Some tk -> tk | None -> ts.ts_updates
        in
        let start, fin =
          Tracer.span_fifo ts.ts_tr tk ~name:"update-job"
            ~dispatch:t_dispatch ~finish:(Bgp_engine.Clock.now t.clock)
            ~args:
              [ ("prefixes", Tracer.Int (prefixes w));
                ("peer", Tracer.Int w.w_src) ]
            ()
        in
        let window = fin -. start in
        let n_ran =
          Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 ran
        in
        let cursor = ref start in
        Array.iteri
          (fun i st ->
            if ran.(i) then begin
              let frac =
                if !total > 0.0 then costs.(i) /. !total
                else 1.0 /. float_of_int (max n_ran 1)
              in
              let dur = window *. frac in
              Tracer.span ts.ts_tr tk ~name:(stage_name st.id)
                ~ts:!cursor ~dur
                ~args:
                  [ ("cycles", Tracer.Float costs.(i));
                    ("units", Tracer.Int (units st.id w));
                    ("attr_groups", Tracer.Int (attr_groups w)) ]
                ();
              cursor := !cursor +. dur
            end)
          t.stages;
        trace_update_done t b
      | _ -> ());
      b.b_hooks.on_done ())

let rec pump t pacing =
  if (not t.pacer_busy) && not (Queue.is_empty t.pending) then begin
    t.pacer_busy <- true;
    let b = Queue.pop t.pending in
    ignore
      (Bgp_engine.Clock.schedule t.clock ~delay:pacing (fun () ->
           dispatch_fused t
             { b with
               b_hooks =
                 { b.b_hooks with
                   on_done =
                     (fun () ->
                       b.b_hooks.on_done ();
                       t.pacer_busy <- false;
                       pump t pacing) } }))
  end

let submit t w hooks =
  let traced =
    match t.trace with Some ts -> Tracer.sample_this ts.ts_tr | None -> false
  in
  let b =
    { b_work = w; b_hooks = hooks; b_traced = traced;
      b_t0 = (if traced then Bgp_engine.Clock.now t.clock else 0.0) }
  in
  match t.layout with
  | Pipelined -> dispatch_from t b 0
  | Fused_paced pacing ->
    Queue.add b t.pending;
    pump t pacing

(* A stage's slot in [order]. *)
let index = function
  | Wire_decode -> 0
  | Import_policy -> 1
  | Adj_rib_in -> 2
  | Decision -> 3
  | Fib_install -> 4
  | Export_policy -> 5
  | Mrai_pacing -> 6

let run_on t id ~cycles fn = run_stage t t.stages.(index id) ~cycles fn

let idle t =
  Queue.is_empty t.pending
  && (not t.pacer_busy)
  && Array.for_all
       (fun st ->
         match st.proc with
         | Some p -> Sched.queue_length t.sched p = 0
         | None -> true)
       t.stages

type stage_stat = {
  st_stage : string;
  st_proc : string option;
  st_units : int;
  st_batches : int;
  st_cycles : float;
}

let stage_stats t =
  Array.to_list
    (Array.map
       (fun st ->
         { st_stage = stage_name st.id;
           st_proc = st.proc_name;
           st_units = Metrics.value st.m_units;
           st_batches = Metrics.value st.m_batches;
           st_cycles = Metrics.hist_sum st.m_cycles })
       t.stages)

let pp_stage_stats ppf stats =
  Format.fprintf ppf "@[<v>%-14s %-12s %10s %10s %14s %12s@," "stage" "proc"
    "units" "batches" "cycles" "cyc/batch";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-14s %-12s %10d %10d %14.0f %12.0f@," s.st_stage
        (Option.value ~default:"-" s.st_proc)
        s.st_units s.st_batches s.st_cycles
        (if s.st_batches = 0 then 0.0
         else s.st_cycles /. float_of_int s.st_batches))
    stats;
  Format.fprintf ppf "@]"
