open Bgp_sim

let feq ?(eps = 1e-6) name expect got =
  if Float.abs (expect -. got) > eps then
    Alcotest.failf "%s: expected %.9f got %.9f" name expect got

(* ------------------------------------------------------------------ *)
(* The engine's indexed heap                                           *)
(* ------------------------------------------------------------------ *)

(* Dispatch order is (time, seq): a re-armed event takes the next seq,
   so it goes behind an event scheduled after it for the same instant. *)
let test_heap_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let at time v = Engine.schedule_at e ~time (fun () -> order := v :: !order) in
  ignore (at 3.0 (3.0, 1));
  let first = at 1.0 (1.0, 1) in
  ignore (at 2.0 (2.0, 3));
  ignore (at 1.0 (1.0, 2));
  ignore (at 0.5 (0.5, 9));
  Engine.rearm first ~time:1.0;
  Engine.run e;
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted by (time, seq)"
    [ (0.5, 9); (1.0, 2); (1.0, 1); (2.0, 3); (3.0, 1) ]
    (List.rev !order);
  Alcotest.(check int) "empty" 0 (Engine.pending e)

let test_heap_stress () =
  let e = Engine.create () in
  let rng = Rng.create 1 in
  let last = ref neg_infinity and ok = ref true and fired = ref 0 in
  let handles =
    Array.init 10000 (fun _ ->
        Engine.schedule_at e ~time:(Rng.float rng 100.0) (fun () ->
            if Engine.now e < !last then ok := false;
            last := Engine.now e;
            incr fired))
  in
  Alcotest.(check int) "size" 10000 (Engine.pending e);
  (* Scattered cancels and re-keys exercise removal from, and sifts in
     both directions at, every depth of the heap. *)
  Array.iteri
    (fun i h ->
      if i mod 7 = 0 then Engine.cancel h
      else if i mod 5 = 0 then Engine.rearm h ~time:(Rng.float rng 100.0))
    handles;
  let cancelled = (10000 + 6) / 7 in
  Alcotest.(check int) "size after cancels" (10000 - cancelled)
    (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "monotone" true !ok;
  Alcotest.(check int) "survivors all fire" (10000 - cancelled) !fired

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order_and_time () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := (s, Engine.now e) :: !log in
  ignore (Engine.schedule e ~delay:2.0 (note "b"));
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:2.0 (note "c"));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and times"
    [ ("a", 1.0); ("b", 2.0); ("c", 2.0) ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "cancelled" true (Engine.cancelled h)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "five ticks" 5 !count;
  feq "clock at bound" 5.5 (Engine.now e);
  Engine.run ~until:7.0 e;
  Alcotest.(check int) "two more" 7 !count

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:0.0 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_event_limit () =
  let e = Engine.create () in
  Engine.set_event_limit e 10;
  let rec forever () = ignore (Engine.schedule e ~delay:1.0 forever) in
  ignore (Engine.schedule e ~delay:1.0 forever);
  Alcotest.check_raises "limit" Engine.Too_many_events (fun () -> Engine.run e)

let test_engine_past_event () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  let t = ref 0.0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> t := Engine.now e));
  Engine.run e;
  feq "clamped to now" 5.0 !t

let test_engine_pending_exact_after_cancel () =
  let e = Engine.create () in
  let n = 100 in
  let fired = ref [] in
  let handles =
    Array.init n (fun i ->
        Engine.schedule_at e
          ~time:(float_of_int (i + 1))
          (fun () -> fired := i :: !fired))
  in
  Alcotest.(check int) "all pending" n (Engine.pending e);
  (* Cancel 60 of 100, scattered: each leaves the queue at once, so
     [pending] is the queue's length throughout. *)
  let cancelled = ref 0 in
  Array.iteri
    (fun i h ->
      if i mod 10 < 6 then begin
        Engine.cancel h;
        incr cancelled
      end)
    handles;
  Alcotest.(check int) "exact after cancels" (n - !cancelled)
    (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "zero after run" 0 (Engine.pending e);
  let expect = List.filter (fun i -> i mod 10 >= 6) (List.init n Fun.id) in
  Alcotest.(check (list int)) "survivors fire in time order" expect
    (List.rev !fired)

(* Dispatch allocates nothing: 10k queued events, cancels and re-arms
   in place cost no minor words beyond the two floats the reading
   itself boxes. *)
let test_engine_dispatch_allocates_nothing () =
  let e = Engine.create () in
  let fired = ref 0 in
  let fn () = incr fired in
  let hs = Array.init 10_000 (fun i -> Engine.schedule_at e ~time:(float_of_int i) fn) in
  let before = Gc.minor_words () in
  Array.iteri
    (fun i h -> if i mod 3 = 0 then Engine.cancel h else Engine.rearm h ~time:5000.0)
    hs;
  Engine.run_before e ~until:6000.0;
  while Engine.step e do () done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "survivors fired" (10_000 - 3334) !fired;
  if words > 8.0 then
    Alcotest.failf "queue operations allocated %.0f minor words" words

(* Re-arming a spent handle schedules its callback again: after it
   fired, after it was cancelled, and from inside its own callback. *)
let test_engine_rearm_spent () =
  let e = Engine.create () in
  let log = ref [] in
  let self = ref None in
  let h =
    Engine.schedule e ~delay:1.0 (fun () ->
        log := Engine.now e :: !log;
        if List.length !log = 1 then
          Option.iter (fun h -> Engine.rearm h ~time:2.0) !self)
  in
  self := Some h;
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "re-armed from its own callback"
    [ 1.0; 2.0 ] (List.rev !log);
  Engine.rearm h ~time:3.0;
  Alcotest.(check int) "fired handle pending again" 1 (Engine.pending e);
  Engine.cancel h;
  Alcotest.(check bool) "cancelled" true (Engine.cancelled h);
  Engine.rearm h ~time:4.0;
  Alcotest.(check bool) "re-armed is not cancelled" false (Engine.cancelled h);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fires once at the last key"
    [ 1.0; 2.0; 4.0 ] (List.rev !log);
  (* A past instant means now, behind what is already due. *)
  let order = ref [] in
  let a = Engine.schedule e ~delay:0.0 (fun () -> order := "a" :: !order) in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> order := "b" :: !order));
  Engine.rearm a ~time:0.0;
  Engine.run e;
  Alcotest.(check (list string)) "clamped to now, FIFO" [ "b"; "a" ]
    (List.rev !order);
  Alcotest.(check (float 0.0)) "clock unmoved" 4.0 (Engine.now e)

(* [clear] cancels everything queued; the handles stay usable. *)
let test_engine_clear () =
  let e = Engine.create () in
  let log = ref [] in
  let hs =
    List.init 3 (fun i ->
        Engine.schedule_at e ~time:(float_of_int (i + 1)) (fun () ->
            log := i :: !log))
  in
  Engine.clear e;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check bool) "all cancelled" true (List.for_all Engine.cancelled hs);
  Engine.rearm (List.nth hs 1) ~time:5.0;
  Engine.run e;
  Alcotest.(check (list int)) "only the re-armed one fires" [ 1 ] !log

(* Differential oracle: random schedule / cancel / rearm scripts,
   partly run from inside the callbacks, against a list model in which
   rearm is cancel followed by schedule. *)
type timer_op = Sched of float | Cancel of int | Rearm of int * float

type timer_world = {
  w_now : unit -> float;
  w_sched : int -> float -> (unit -> unit) -> unit;
  w_cancel : int -> unit;
  w_rearm : int -> float -> unit;
  w_cancelled : int -> bool;
  w_pending : unit -> int;
  w_run : unit -> unit;
}

let engine_world () =
  let e = Engine.create () in
  let hs = Hashtbl.create 64 in
  { w_now = (fun () -> Engine.now e);
    w_sched =
      (fun id time fn -> Hashtbl.replace hs id (Engine.schedule_at e ~time fn));
    w_cancel = (fun id -> Engine.cancel (Hashtbl.find hs id));
    w_rearm = (fun id time -> Engine.rearm (Hashtbl.find hs id) ~time);
    w_cancelled = (fun id -> Engine.cancelled (Hashtbl.find hs id));
    w_pending = (fun () -> Engine.pending e);
    w_run = (fun () -> Engine.run e) }

let model_world () =
  let now = ref 0.0 and seq = ref 0 in
  let queue = ref [] (* (time, seq, id) *) and fns = Hashtbl.create 64 in
  let cancelled = Hashtbl.create 64 in
  let add id time =
    incr seq;
    queue := (Float.max time !now, !seq, id) :: !queue
  in
  let cancel id =
    if List.exists (fun (_, _, i) -> i = id) !queue then begin
      queue := List.filter (fun (_, _, i) -> i <> id) !queue;
      Hashtbl.replace cancelled id true
    end
  in
  let rec run () =
    match List.sort compare !queue with
    | [] -> ()
    | ((time, _, id) as first) :: _ ->
      queue := List.filter (fun x -> x <> first) !queue;
      now := time;
      (Hashtbl.find fns id) ();
      run ()
  in
  { w_now = (fun () -> !now);
    w_sched =
      (fun id time fn ->
        Hashtbl.replace fns id fn;
        add id time);
    w_cancel = cancel;
    w_rearm =
      (fun id time ->
        cancel id;
        Hashtbl.remove cancelled id;
        add id time);
    w_cancelled = (fun id -> Hashtbl.mem cancelled id);
    w_pending = (fun () -> List.length !queue);
    w_run = run }

(* Run [script] on [w]: the first [top] ops from the top level, the
   rest from callbacks (event [id] runs [id mod 3] ops when it fires).
   The trace records each firing and, after every op, the pending count
   and the touched handle's cancelled flag. *)
let drive w script ~top =
  let trace = ref [] and ids = ref 0 and cursor = ref 0 in
  let note x = trace := x :: !trace in
  let rec exec () =
    if !cursor < Array.length script then begin
      let op = script.(!cursor) in
      incr cursor;
      let touched =
        match op with
        | Sched d ->
          let id = !ids in
          incr ids;
          w.w_sched id (w.w_now () +. d) (fire id);
          id
        | Cancel k ->
          let id = k mod max 1 !ids in
          if !ids > 0 then w.w_cancel id;
          id
        | Rearm (k, d) ->
          let id = k mod max 1 !ids in
          if !ids > 0 then w.w_rearm id (w.w_now () +. d);
          id
      in
      note
        (Printf.sprintf "pending %d, %d cancelled %b" (w.w_pending ()) touched
           (!ids > 0 && w.w_cancelled touched))
    end
  and fire id () =
    note (Printf.sprintf "fire %d at %h" id (w.w_now ()));
    for _ = 1 to id mod 3 do exec () done
  in
  for _ = 1 to top do exec () done;
  w.w_run ();
  List.rev !trace

let test_engine_matches_model () =
  let delays = [| -1.0; 0.0; 0.0; 0.5; 1.0; 1.0; 2.5 |] in
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let delay () =
      if Rng.int rng 4 = 0 then Rng.float rng 3.0
      else delays.(Rng.int rng (Array.length delays))
    in
    let script =
      Array.init (20 + Rng.int rng 80) (fun _ ->
          match Rng.int rng 5 with
          | 0 | 1 -> Sched (delay ())
          | 2 -> Cancel (Rng.int rng 100)
          | _ -> Rearm (Rng.int rng 100, delay ()))
    in
    let top = 1 + Rng.int rng (Array.length script) in
    let expect = drive (model_world ()) script ~top in
    let got = drive (engine_world ()) script ~top in
    Alcotest.(check (list string)) (Printf.sprintf "seed %d" seed) expect got
  done

let test_engine_run_before () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e ~time:2.0 (fun () -> log := 2 :: !log));
  Engine.run_before e ~until:2.0;
  Alcotest.(check (list int)) "strictly below the bound" [ 1 ] (List.rev !log);
  feq "clock at bound" 2.0 (Engine.now e);
  Alcotest.(check int) "boundary event still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "boundary fires on the next run" [ 1; 2 ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Pengine                                                             *)
(* ------------------------------------------------------------------ *)

let test_pengine_parts1_matches_engine () =
  let schedule_all e log =
    List.iter
      (fun (t, s) ->
        ignore
          (Engine.schedule_at e ~time:t (fun () ->
               log := (s, Engine.now e) :: !log)))
      [ (1.0, "a"); (0.5, "b"); (2.0, "c"); (1.0, "d") ]
  in
  let plain =
    let e = Engine.create () in
    let log = ref [] in
    schedule_all e log;
    Engine.run ~until:3.0 e;
    List.rev !log
  in
  let partitioned =
    let pe = Pengine.create () in
    let log = ref [] in
    schedule_all (Pengine.part pe 0) log;
    Pengine.run_until pe 3.0;
    List.rev !log
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "parts=1 is the plain engine" plain partitioned;
  Alcotest.(check int) "dispatched" 4
    (let pe = Pengine.create () in
     let log = ref [] in
     schedule_all (Pengine.part pe 0) log;
     Pengine.run_until pe 3.0;
     Pengine.dispatched pe 0)

(* [parts] partitions pass a token around a ring (0 -> 1 -> ... -> 0)
   over cross links of latency 0.5, from partition 0 at 0.25 until 3.0,
   next to one local event on partition 1.  Each partition's log is
   written only by the domain draining it and read after run_until
   returns, whose final barrier orders those writes before the read. *)
let ring_logs ~parts =
  let pe = Pengine.create ~parts () in
  Pengine.register_cross_latency pe 0.5;
  let logs = Array.init parts (fun _ -> ref []) in
  let rec pass src msg () =
    let now = Engine.now (Pengine.part pe src) in
    logs.(src) := (msg, now) :: !(logs.(src));
    if now < 3.0 then begin
      let dst = (src + 1) mod parts in
      Pengine.post pe ~src ~dst ~time:(now +. 0.5) (pass dst (msg ^ "."))
    end
  in
  ignore (Engine.schedule_at (Pengine.part pe 0) ~time:0.25 (pass 0 "p"));
  ignore
    (Engine.schedule_at (Pengine.part pe 1) ~time:0.4 (fun () ->
         logs.(1) := ("local", Engine.now (Pengine.part pe 1)) :: !(logs.(1))));
  Pengine.run_until pe 4.0;
  Array.map (fun l -> List.rev !l) logs

(* The hand-computed schedules of [ring_logs] on 2 and 3 partitions. *)
let ring2 =
  [| [ ("p", 0.25); ("p..", 1.25); ("p....", 2.25); ("p......", 3.25) ];
     [ ("local", 0.4); ("p.", 0.75); ("p...", 1.75); ("p.....", 2.75) ] |]

let ring3 =
  [| [ ("p", 0.25); ("p...", 1.75); ("p......", 3.25) ];
     [ ("local", 0.4); ("p.", 0.75); ("p....", 2.25) ];
     [ ("p..", 1.25); ("p.....", 2.75) ] |]

let check_ring name expect got =
  Array.iteri
    (fun i l ->
      Alcotest.(check (list (pair string (float 1e-9))))
        (Printf.sprintf "%s: partition %d schedule" name i)
        l got.(i))
    expect

(* Two partitions exchanging posts across the window barrier: the
   per-partition logs must be a pure function of the model — identical
   across runs and equal to the hand-computed schedule. *)
let test_pengine_two_partition_windows () =
  let run () =
    let logs = ring_logs ~parts:2 in
    (logs.(0), logs.(1))
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "two runs identical" true (a = b);
  let l0, l1 = a in
  Alcotest.(check (list (pair string (float 1e-9))))
    "partition 0 schedule"
    [ ("p", 0.25); ("p..", 1.25); ("p....", 2.25); ("p......", 3.25) ]
    l0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "partition 1 schedule"
    [ ("local", 0.4); ("p.", 0.75); ("p...", 1.75); ("p.....", 2.75) ]
    l1

let test_pengine_partition_failed () =
  let pe = Pengine.create ~parts:2 () in
  Pengine.register_cross_latency pe 1.0;
  ignore
    (Engine.schedule_at (Pengine.part pe 1) ~time:0.5 (fun () ->
         failwith "boom"));
  (match Pengine.run_until pe 2.0 with
  | () -> Alcotest.fail "expected Partition_failed"
  | exception Pengine.Partition_failed (1, Failure msg) when msg = "boom" -> ()
  | exception Pengine.Partition_failed (p, e) ->
    Alcotest.failf "wrong payload: partition %d, %s" p (Printexc.to_string e));
  (* The engine is still parked consistently: a fresh run can proceed. *)
  Pengine.run_until pe 3.0;
  feq "clock advanced" 3.0 (Pengine.now pe)

(* One crew serves every engine: it grows from one worker to two and
   back to serving one, and each engine still runs its exact schedule. *)
let test_pengine_crew_reused () =
  check_ring "2 partitions" ring2 (ring_logs ~parts:2);
  check_ring "3 partitions" ring3 (ring_logs ~parts:3);
  check_ring "2 partitions again" ring2 (ring_logs ~parts:2)

(* The hook binds a worker once per run_until, before its first window,
   however many windows the call has. *)
let test_pengine_worker_init_once () =
  let pe = Pengine.create ~parts:3 () in
  Pengine.register_cross_latency pe 0.01;
  let call = Atomic.make 0 in
  let m = Mutex.create () and inits = ref [] in
  Pengine.set_worker_init pe (fun k ->
      Mutex.lock m;
      inits := (k, Atomic.get call) :: !inits;
      Mutex.unlock m);
  let rec pass src () =
    let now = Engine.now (Pengine.part pe src) in
    let dst = (src + 1) mod 3 in
    Pengine.post pe ~src ~dst ~time:(now +. 0.01) (pass dst)
  in
  ignore (Engine.schedule_at (Pengine.part pe 0) ~time:0.0 (pass 0));
  List.iteri
    (fun i until ->
      Atomic.set call (i + 1);
      Pengine.run_until pe until)
    [ 0.5; 1.0; 1.5 ];
  (* One token hop per window: ~50 windows per call. *)
  Alcotest.(check bool) "dozens of windows per call" true
    (Pengine.dispatched pe 0 + Pengine.dispatched pe 1 + Pengine.dispatched pe 2
     >= 120);
  Alcotest.(check (list (pair int int)))
    "workers 1..2 once per call, partition 0 never"
    [ (1, 1); (1, 2); (1, 3); (2, 1); (2, 2); (2, 3) ]
    (List.sort compare !inits)

let test_pengine_failed_window_crew_usable () =
  List.iter
    (fun failing ->
      let pe = Pengine.create ~parts:2 () in
      Pengine.register_cross_latency pe 1.0;
      ignore
        (Engine.schedule_at (Pengine.part pe failing) ~time:0.5 (fun () ->
             failwith "boom"));
      match Pengine.run_until pe 2.0 with
      | () -> Alcotest.fail "expected Partition_failed"
      | exception Pengine.Partition_failed (p, Failure _) when p = failing -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e))
    [ 1; 0 ];
  check_ring "after failures" ring2 (ring_logs ~parts:2)

(* The crew serves one multi-partition run_until at a time: an event
   that calls run_until on another engine gets Invalid_argument, and
   the outer engine runs on. *)
let test_pengine_nested_rejected () =
  let outer = Pengine.create ~parts:2 ()
  and inner = Pengine.create ~parts:2 () in
  Pengine.register_cross_latency outer 1.0;
  Pengine.register_cross_latency inner 1.0;
  let later = ref false in
  ignore
    (Engine.schedule_at (Pengine.part outer 0) ~time:0.5 (fun () ->
         Pengine.run_until inner 1.0));
  ignore
    (Engine.schedule_at (Pengine.part outer 1) ~time:2.5 (fun () ->
         later := true));
  (match Pengine.run_until outer 2.0 with
  | () -> Alcotest.fail "expected Partition_failed"
  | exception Pengine.Partition_failed (0, Invalid_argument _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Pengine.run_until outer 3.0;
  feq "outer clock advanced" 3.0 (Pengine.now outer);
  Alcotest.(check bool) "outer events still fire" true !later

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Rng.int (Rng.create 42) 1000000 <> Rng.int c 1000000 then diff := true
  done;
  Alcotest.(check bool) "different seed differs" true !diff

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of range: %f" f;
    let e = Rng.exponential r ~mean:3.0 in
    if e < 0.0 then Alcotest.fail "negative exponential"
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 4.0) > 0.2 then
    Alcotest.failf "exponential mean drifted: %f" mean

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let s = Rng.split r in
  (* Streams must not be identical. *)
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.int r 1000000 <> Rng.int s 1000000 then same := false
  done;
  Alcotest.(check bool) "split differs" false !same

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let with_sched ~pool f =
  let e = Engine.create () in
  let s = Sched.create (Engine.clock e) ~hz:1000.0 ~pool in
  f e s

let test_sched_single_job () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let t_done = ref 0.0 in
      Sched.submit s p ~cycles:500.0 (fun () -> t_done := Engine.now e);
      Engine.run e;
      feq "cycles/hz" 0.5 !t_done)

let test_sched_sharing_one_core () =
  with_sched ~pool:1.0 (fun e s ->
      let p1 = Sched.add_proc s "p1" and p2 = Sched.add_proc s "p2" in
      let d1 = ref 0.0 and d2 = ref 0.0 in
      Sched.submit s p1 ~cycles:500.0 (fun () -> d1 := Engine.now e);
      Sched.submit s p2 ~cycles:500.0 (fun () -> d2 := Engine.now e);
      Engine.run e;
      (* Each runs at 0.5 core: both finish at 1.0s. *)
      feq "p1" 1.0 !d1;
      feq "p2" 1.0 !d2)

let test_sched_two_cores_pipeline () =
  with_sched ~pool:2.0 (fun e s ->
      let p1 = Sched.add_proc s "p1" and p2 = Sched.add_proc s "p2" in
      let d1 = ref 0.0 and d2 = ref 0.0 in
      Sched.submit s p1 ~cycles:500.0 (fun () -> d1 := Engine.now e);
      Sched.submit s p2 ~cycles:500.0 (fun () -> d2 := Engine.now e);
      Engine.run e;
      (* Both at full core speed. *)
      feq "p1" 0.5 !d1;
      feq "p2" 0.5 !d2)

let test_sched_proc_capped_at_one_core () =
  with_sched ~pool:2.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let t_done = ref 0.0 in
      Sched.submit s p ~cycles:1000.0 (fun () -> t_done := Engine.now e);
      Engine.run e;
      (* A single-threaded process cannot use the second core. *)
      feq "capped" 1.0 !t_done)

let test_sched_fifo_within_proc () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let log = ref [] in
      Sched.submit s p ~cycles:100.0 (fun () -> log := ("a", Engine.now e) :: !log);
      Sched.submit s p ~cycles:100.0 (fun () -> log := ("b", Engine.now e) :: !log);
      Alcotest.(check int) "queued" 2 (Sched.queue_length s p);
      Engine.run e;
      match List.rev !log with
      | [ ("a", ta); ("b", tb) ] ->
        feq "a" 0.1 ta;
        feq "b" 0.2 tb
      | _ -> Alcotest.fail "wrong order")

let test_sched_interrupt_steals () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      (* interrupts take 50% of the pool *)
      Sched.set_interrupt_demand s ~cycles_per_sec:500.0;
      let t_done = ref 0.0 in
      Sched.submit s p ~cycles:500.0 (fun () -> t_done := Engine.now e);
      Engine.run ~until:10.0 e;
      feq "half speed" 1.0 !t_done)

let test_sched_interrupt_change_midway () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let t_done = ref 0.0 in
      Sched.submit s p ~cycles:1000.0 (fun () -> t_done := Engine.now e);
      (* After 0.5s at full speed (500 cycles done), interrupts eat 50%:
         the remaining 500 cycles take 1.0s more. *)
      ignore
        (Engine.schedule e ~delay:0.5 (fun () ->
             Sched.set_interrupt_demand s ~cycles_per_sec:500.0));
      Engine.run ~until:10.0 e;
      feq "piecewise" 1.5 !t_done)

let test_sched_forwarding_priority_and_loss () =
  with_sched ~pool:1.0 (fun e s ->
      (* Forwarding wants 95% of the core, weight 8. *)
      Sched.set_forwarding_demand s ~cycles_per_sec:950.0 ();
      feq "alone: fully served" 1.0 (Sched.forwarding_ratio s);
      let p = Sched.add_proc s "p" in
      Sched.submit s p ~cycles:1000.0 (fun () -> ());
      (* With one user proc: forwarding gets 8/9 of the core = 888.9
         cycles/s < demand -> ratio ~0.9356. *)
      feq ~eps:1e-3 "contended ratio" (8.0 /. 9.0 /. 0.95) (Sched.forwarding_ratio s);
      Engine.run ~until:20.0 e;
      (* Queue drained: forwarding fully served again. *)
      feq "recovered" 1.0 (Sched.forwarding_ratio s))

let test_sched_forwarding_moderate_unaffected () =
  with_sched ~pool:1.0 (fun e s ->
      (* Moderate forwarding demand (35%) is fully served even while a
         user process runs, because weight 8 >> 1. *)
      Sched.set_forwarding_demand s ~cycles_per_sec:350.0 ();
      let p = Sched.add_proc s "p" in
      let t_done = ref 0.0 in
      Sched.submit s p ~cycles:650.0 (fun () -> t_done := Engine.now e);
      feq "served" 1.0 (Sched.forwarding_ratio s);
      Engine.run ~until:10.0 e;
      (* User got the remaining 65%. *)
      feq ~eps:1e-3 "user speed" 1.0 !t_done)

let test_sched_accounting () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      Sched.set_interrupt_demand s ~cycles_per_sec:200.0;
      Sched.submit s p ~cycles:400.0 (fun () -> ());
      Engine.run ~until:1.0 e;
      (* Force the accounting boundary at t=1.0. *)
      let acc = Sched.take_accounting s in
      feq "elapsed" 1.0 acc.Sched.acc_elapsed;
      feq ~eps:1e-3 "interrupt cycles" 200.0 acc.Sched.acc_interrupt;
      (match acc.Sched.acc_procs with
      | [ ("p", c) ] -> feq ~eps:1e-3 "proc cycles" 400.0 c
      | _ -> Alcotest.fail "proc accounting");
      (* Second window is empty. *)
      Engine.run ~until:2.0 e;
      let acc2 = Sched.take_accounting s in
      (match acc2.Sched.acc_procs with
      | [ ("p", c) ] -> feq ~eps:1e-3 "idle window" 0.0 c
      | _ -> Alcotest.fail "proc accounting 2");
      feq ~eps:1e-3 "interrupts continue" 200.0 acc2.Sched.acc_interrupt)

let test_sched_zero_cycle_job () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let fired = ref false in
      Sched.submit s p ~cycles:0.0 (fun () -> fired := true);
      Engine.run e;
      Alcotest.(check bool) "zero job completes" true !fired)

let test_sched_many_jobs_throughput () =
  with_sched ~pool:1.0 (fun e s ->
      let p = Sched.add_proc s "p" in
      let completed = ref 0 in
      for _ = 1 to 1000 do
        Sched.submit s p ~cycles:10.0 (fun () -> incr completed)
      done;
      Engine.run e;
      Alcotest.(check int) "all done" 1000 !completed;
      (* 10000 cycles at 1000 Hz = 10 s *)
      feq ~eps:1e-3 "total time" 10.0 (Engine.now e))

(* Work conservation: with n busy single-core processes on a pool of
   size m and no background load, total completion time of equal jobs
   is (total cycles) / (hz * min(n, m)). *)
let prop_sched_work_conserving =
  QCheck2.Test.make ~name:"scheduler is work-conserving" ~count:100
    QCheck2.Gen.(
      triple (int_range 1 6) (int_range 1 4) (int_range 1 20))
    (fun (nprocs, pool, kilocycles) ->
      let e = Engine.create () in
      let s = Sched.create (Engine.clock e) ~hz:1000.0 ~pool:(float_of_int pool) in
      let cycles = float_of_int (kilocycles * 1000) in
      let done_count = ref 0 in
      for i = 1 to nprocs do
        let p = Sched.add_proc s (Printf.sprintf "p%d" i) in
        Sched.submit s p ~cycles (fun () -> incr done_count)
      done;
      Engine.run e;
      let expect =
        float_of_int nprocs *. cycles
        /. (1000.0 *. float_of_int (min nprocs pool))
      in
      !done_count = nprocs
      && Float.abs (Engine.now e -. expect) /. expect < 1e-6)

(* FIFO per process: completion order within one process matches
   submission order, regardless of interleaved load elsewhere. *)
let prop_sched_fifo_per_proc =
  QCheck2.Test.make ~name:"jobs complete FIFO within a process" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 500))
    (fun jobs ->
      let e = Engine.create () in
      let s = Sched.create (Engine.clock e) ~hz:1000.0 ~pool:1.0 in
      let p = Sched.add_proc s "p" in
      let other = Sched.add_proc s "other" in
      Sched.submit s other ~cycles:5000.0 (fun () -> ());
      let order = ref [] in
      List.iteri
        (fun i c ->
          Sched.submit s p ~cycles:(float_of_int c) (fun () ->
              order := i :: !order))
        jobs;
      Engine.run e;
      List.rev !order = List.init (List.length jobs) Fun.id)

(* The zero-cycle pipeline chain of [Bgpmark.Sched_alloc]: only the
   floats the clock boxes when the completion is re-armed may allocate,
   so a job stays far below the 262 words the list-based scheduler
   spent. *)
let test_sched_step_alloc () =
  let words = Bgpmark.Sched_alloc.words_per_job ~jobs:20_000 in
  if words > 60.0 then
    Alcotest.failf "scheduler step allocates %.1f words per job (bound 60)"
      words

(* Differential oracle: the scheduler against its frozen list-based
   reference (sched_ref.ml) on random workloads — completion times and
   order, event counts and accounting must agree bit for bit. *)
type sched_op =
  | Job of int * float * (int * float) option
      (** proc, cycles, and a follow-up job its completion submits *)
  | Interrupt of float
  | Forwarding of float option * float
  | Account

module type SCHED = sig
  type t
  type proc

  val create : Bgp_engine.Clock.t -> hz:float -> pool:float -> t
  val add_proc : t -> ?weight:float -> string -> proc
  val submit : t -> proc -> cycles:float -> (unit -> unit) -> unit
  val set_interrupt_demand : t -> cycles_per_sec:float -> unit

  val set_forwarding_demand :
    t -> ?weight:float -> cycles_per_sec:float -> unit -> unit

  val forwarding_ratio : t -> float
  val queue_length : t -> proc -> int
  val accounting : t -> (string * float) list * float * float * float
end

module Replay (S : SCHED) = struct
  let run ~pool ~weights ops =
    let e = Engine.create () in
    let s = S.create (Engine.clock e) ~hz:1000.0 ~pool in
    let procs =
      Array.mapi (fun i w -> S.add_proc s ~weight:w (Printf.sprintf "p%d" i))
        weights
    in
    let log = ref [] in
    let note fmt = Printf.ksprintf (fun l -> log := l :: !log) fmt in
    let account () =
      let per_proc, irq, fwd, elapsed = S.accounting s in
      note "acct@%h [%s] irq=%h fwd=%h el=%h ratio=%h q=%s" (Engine.now e)
        (String.concat ";"
           (List.map (fun (n, c) -> Printf.sprintf "%s=%h" n c) per_proc))
        irq fwd elapsed (S.forwarding_ratio s)
        (String.concat ","
           (Array.to_list
              (Array.map (fun p -> string_of_int (S.queue_length s p)) procs)))
    in
    List.iteri
      (fun k (at, op) ->
        ignore
          (Engine.schedule_at e ~time:at (fun () ->
               match op with
               | Job (p, cycles, next) ->
                 S.submit s procs.(p) ~cycles (fun () ->
                     note "done %d@%h" k (Engine.now e);
                     Option.iter
                       (fun (q, c) ->
                         S.submit s procs.(q) ~cycles:c (fun () ->
                             note "next %d@%h" k (Engine.now e)))
                       next)
               | Interrupt cps -> S.set_interrupt_demand s ~cycles_per_sec:cps
               | Forwarding (weight, cps) ->
                 S.set_forwarding_demand s ?weight ~cycles_per_sec:cps ()
               | Account -> account ())))
      ops;
    Engine.run e;
    account ();
    note "events %d" (Engine.dispatched e);
    List.rev !log
end

module Lib_replay = Replay (struct
  include Sched

  let accounting s =
    let a = take_accounting s in
    (a.acc_procs, a.acc_interrupt, a.acc_forwarding, a.acc_elapsed)
end)

module Ref_replay = Replay (struct
  include Sched_ref

  let accounting s =
    let a = take_accounting s in
    (a.acc_procs, a.acc_interrupt, a.acc_forwarding, a.acc_elapsed)
end)

let gen_sched_workload =
  let open QCheck2.Gen in
  let cycles = oneof [ return 0.0; float_range 1.0 5000.0 ] in
  let* pool = float_range 0.5 4.0 in
  let* weights = array_size (int_range 1 6) (float_range 0.25 4.0) in
  let proc = int_bound (Array.length weights - 1) in
  let op =
    frequency
      [ (6, map3 (fun p c n -> Job (p, c, n)) proc cycles
              (option (pair proc cycles)));
        (1, map (fun c -> Interrupt c) (float_range 0.0 1500.0));
        (1, map2 (fun w c -> Forwarding (w, c))
              (option (float_range 1.0 16.0)) (float_range 0.0 3000.0));
        (1, return Account) ]
  in
  let+ ops = list_size (int_range 1 40) (pair (float_range 0.0 10.0) op) in
  (pool, weights, ops)

let print_sched_workload (pool, weights, ops) =
  Printf.sprintf "pool=%h weights=[%s] ops=[%s]" pool
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") weights)))
    (String.concat "; "
       (List.map
          (fun (at, op) ->
            Printf.sprintf "%h:%s" at
              (match op with
              | Job (p, c, n) ->
                Printf.sprintf "job p%d %h%s" p c
                  (match n with
                  | Some (q, c') -> Printf.sprintf " -> p%d %h" q c'
                  | None -> "")
              | Interrupt c -> Printf.sprintf "irq %h" c
              | Forwarding (w, c) ->
                Printf.sprintf "fwd %s %h"
                  (match w with Some w -> Printf.sprintf "w=%h" w | None -> "-")
                  c
              | Account -> "account"))
          ops))

let prop_sched_matches_reference =
  QCheck2.Test.make ~name:"scheduler matches the list-based reference"
    ~count:300 ~print:print_sched_workload gen_sched_workload
    (fun (pool, weights, ops) ->
      Lib_replay.run ~pool ~weights ops = Ref_replay.run ~pool ~weights ops)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_sampling () =
  let e = Engine.create () in
  let s = Sched.create (Engine.clock e) ~hz:1000.0 ~pool:1.0 in
  let p = Sched.add_proc s "worker" in
  let tr = Trace.start (Engine.clock e) s ~interval:1.0 () in
  (* Busy for the first 2 s at 100%, then idle. *)
  Sched.submit s p ~cycles:2000.0 (fun () -> ());
  Engine.run ~until:4.0 e;
  Trace.stop tr;
  let ss = Trace.samples tr in
  Alcotest.(check int) "four+final samples" 4 (List.length ss);
  (match ss with
  | s1 :: s2 :: s3 :: _ ->
    feq ~eps:0.5 "first second busy" 100.0 (Trace.total_user_percent s1);
    feq ~eps:0.5 "second second busy" 100.0 (Trace.total_user_percent s2);
    feq ~eps:0.5 "third second idle" 0.0 (Trace.total_user_percent s3)
  | _ -> Alcotest.fail "samples");
  let rows = Trace.to_rows tr in
  Alcotest.(check bool) "has worker series" true (List.mem_assoc "worker" rows);
  Alcotest.(check bool) "has interrupts series" true
    (List.mem_assoc "interrupts" rows)

let test_trace_interrupt_series () =
  let e = Engine.create () in
  let s = Sched.create (Engine.clock e) ~hz:1000.0 ~pool:1.0 in
  ignore (Sched.add_proc s "w");
  let tr = Trace.start (Engine.clock e) s ~interval:1.0 () in
  Sched.set_interrupt_demand s ~cycles_per_sec:300.0;
  Engine.run ~until:3.0 e;
  Trace.stop tr;
  List.iter
    (fun sample -> feq ~eps:0.5 "irq 30%" 30.0 sample.Trace.s_interrupt)
    (Trace.samples tr)

let () =
  Alcotest.run "bgp_sim"
    [ ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "stress" `Quick test_heap_stress
        ] );
      ( "engine",
        [ Alcotest.test_case "order and time" `Quick test_engine_order_and_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "event limit" `Quick test_engine_event_limit;
          Alcotest.test_case "past event clamped" `Quick test_engine_past_event;
          Alcotest.test_case "exact pending after cancel" `Quick
            test_engine_pending_exact_after_cancel;
          Alcotest.test_case "dispatch allocates nothing" `Quick
            test_engine_dispatch_allocates_nothing;
          Alcotest.test_case "rearm a spent handle" `Quick
            test_engine_rearm_spent;
          Alcotest.test_case "clear cancels every pending event" `Quick
            test_engine_clear;
          Alcotest.test_case "matches rearm = cancel + schedule model" `Quick
            test_engine_matches_model;
          Alcotest.test_case "run_before half-open bound" `Quick
            test_engine_run_before
        ] );
      ( "pengine",
        [ Alcotest.test_case "parts=1 matches plain engine" `Quick
            test_pengine_parts1_matches_engine;
          Alcotest.test_case "two-partition window determinism" `Quick
            test_pengine_two_partition_windows;
          Alcotest.test_case "partition failure propagates" `Quick
            test_pengine_partition_failed;
          Alcotest.test_case "crew reused across engines" `Quick
            test_pengine_crew_reused;
          Alcotest.test_case "worker init once per run_until" `Quick
            test_pengine_worker_init_once;
          Alcotest.test_case "failed window leaves the crew usable" `Quick
            test_pengine_failed_window_crew_usable;
          Alcotest.test_case "nested run_until is rejected" `Quick
            test_pengine_nested_rejected
        ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent
        ] );
      ( "sched",
        [ Alcotest.test_case "single job" `Quick test_sched_single_job;
          Alcotest.test_case "sharing one core" `Quick test_sched_sharing_one_core;
          Alcotest.test_case "two cores pipeline" `Quick test_sched_two_cores_pipeline;
          Alcotest.test_case "per-proc core cap" `Quick test_sched_proc_capped_at_one_core;
          Alcotest.test_case "fifo within proc" `Quick test_sched_fifo_within_proc;
          Alcotest.test_case "interrupts steal cpu" `Quick test_sched_interrupt_steals;
          Alcotest.test_case "interrupt change midway" `Quick
            test_sched_interrupt_change_midway;
          Alcotest.test_case "forwarding priority and loss" `Quick
            test_sched_forwarding_priority_and_loss;
          Alcotest.test_case "moderate forwarding unaffected" `Quick
            test_sched_forwarding_moderate_unaffected;
          Alcotest.test_case "accounting" `Quick test_sched_accounting;
          Alcotest.test_case "zero-cycle job" `Quick test_sched_zero_cycle_job;
          Alcotest.test_case "many jobs throughput" `Quick test_sched_many_jobs_throughput;
          Alcotest.test_case "zero-cycle step allocation bound" `Quick
            test_sched_step_alloc
        ] );
      ( "sched-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sched_work_conserving; prop_sched_fifo_per_proc;
            prop_sched_matches_reference ] );
      ( "trace",
        [ Alcotest.test_case "sampling" `Quick test_trace_sampling;
          Alcotest.test_case "interrupt series" `Quick test_trace_interrupt_series
        ] )
    ]
