module Engine = Bgp_sim.Engine
module Sched = Bgp_sim.Sched

let words_per_job ~jobs =
  let e = Engine.create () in
  let s = Sched.create (Engine.clock e) ~hz:1e9 ~pool:2.0 in
  let procs =
    Array.init 4 (fun i -> Sched.add_proc s (Printf.sprintf "p%d" i))
  in
  let count = ref 0 and limit = ref 0 in
  (* The stage callbacks are built once, so the chain itself allocates
     nothing and the count is the scheduler's and the engine's alone. *)
  let stage = Array.make 4 ignore in
  Array.iteri
    (fun i _ ->
      let next = (i + 1) land 3 in
      stage.(i) <-
        (fun () ->
          incr count;
          if !count < !limit then
            Sched.submit s procs.(next) ~cycles:0.0 stage.(next)))
    stage;
  let chain n =
    limit := !count + n;
    Sched.submit s procs.(0) ~cycles:0.0 stage.(0);
    Engine.run e
  in
  chain 1000;
  let before = Gc.minor_words () in
  chain jobs;
  (Gc.minor_words () -. before) /. float_of_int jobs
