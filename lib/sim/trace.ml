module Clock = Bgp_engine.Clock

type sample = {
  s_time : float;
  s_procs : (string * float) list;
  s_interrupt : float;
  s_forwarding : float;
  s_fwd_ratio : float;
}

type t = {
  clock : Clock.t;
  sched : Sched.t;
  interval : float;
  mutable rev_samples : sample list;
  mutable running : bool;
  mutable tick : Clock.handle option;
}

let percent hz cycles elapsed =
  if elapsed <= 0.0 then 0.0 else 100.0 *. cycles /. (hz *. elapsed)

let take t =
  let acc = Sched.take_accounting t.sched in
  let hz = Sched.clock_hz t.sched in
  let el = acc.Sched.acc_elapsed in
  if el > 0.0 then
    t.rev_samples <-
      { s_time = Clock.now t.clock;
        s_procs = List.map (fun (n, c) -> (n, percent hz c el)) acc.Sched.acc_procs;
        s_interrupt = percent hz acc.Sched.acc_interrupt el;
        s_forwarding = percent hz acc.Sched.acc_forwarding el;
        s_fwd_ratio = Sched.forwarding_ratio t.sched }
      :: t.rev_samples

let rec tick t =
  if t.running then begin
    take t;
    t.tick <- Some (Clock.schedule t.clock ~delay:t.interval (fun () -> tick t))
  end

let start clock sched ?(interval = 1.0) () =
  if interval <= 0.0 then invalid_arg "Trace.start: interval must be positive";
  (* Flush whatever accumulated before tracing began. *)
  ignore (Sched.take_accounting sched);
  let t =
    { clock; sched; interval; rev_samples = []; running = true; tick = None }
  in
  t.tick <- Some (Clock.schedule clock ~delay:interval (fun () -> tick t));
  t

let stop t =
  if t.running then begin
    t.running <- false;
    Option.iter Clock.cancel t.tick;
    t.tick <- None;
    take t
  end

let samples t = List.rev t.rev_samples
let total_user_percent s = List.fold_left (fun a (_, p) -> a +. p) 0.0 s.s_procs

let to_rows t =
  let ss = samples t in
  match ss with
  | [] -> []
  | first :: _ ->
    let names = List.map fst first.s_procs in
    let series name =
      List.map
        (fun s -> (s.s_time, Option.value ~default:0.0 (List.assoc_opt name s.s_procs)))
        ss
    in
    List.map (fun n -> (n, series n)) names
    @ [ ("interrupts", List.map (fun s -> (s.s_time, s.s_interrupt)) ss);
        ("forwarding", List.map (fun s -> (s.s_time, s.s_forwarding)) ss) ]
