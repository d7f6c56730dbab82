(* Conformance suite for the Bgp_engine.Clock contract, run against
   both canonical implementations: the simulated discrete-event clock
   and the live select-loop clock.  Each case exercises one clause of
   the semantics table in clock.mli; a third implementation would hook
   in the same way. *)

module Clock = Bgp_engine.Clock

(* One conformance run needs a fresh clock and a way to drive it until
   a condition holds.  Delays are kept tiny so the live legs finish in
   milliseconds of wall-clock time. *)
type impl = { name : string; with_clock : (Clock.t -> unit) -> unit }

let pump clock ~what cond =
  let deadline = Clock.now clock +. 30.0 in
  let rec go () =
    if not (Clock.run clock ~cond ~step:0.02) then
      if Clock.now clock >= deadline then
        Alcotest.failf "clock %s: timeout waiting for %s" (Clock.label clock)
          what
      else go ()
  in
  go ()

let sim_impl =
  { name = "sim";
    with_clock =
      (fun f ->
        f (Clock.of_engine (Bgp_engine.Engine.create ()))) }

let live_impl =
  { name = "live";
    with_clock =
      (fun f ->
        let loop = Bgp_tcp.Event_loop.create () in
        Fun.protect
          ~finally:(fun () -> Bgp_tcp.Event_loop.stop_watching_all loop)
          (fun () -> f (Bgp_tcp.Event_loop.clock loop))) }

(* ------------------------------------------------------------------ *)
(* The contract clauses                                                *)
(* ------------------------------------------------------------------ *)

let test_now_monotonic impl () =
  impl.with_clock (fun c ->
      let t0 = Clock.now c in
      let seen = ref t0 in
      let fired = ref 0 in
      for _ = 1 to 5 do
        ignore
          (Clock.schedule c ~delay:0.005 (fun () ->
               let t = Clock.now c in
               Alcotest.(check bool) "time never decreases" true (t >= !seen);
               seen := t;
               incr fired))
      done;
      pump c ~what:"5 firings" (fun () -> !fired = 5);
      Alcotest.(check bool) "advanced past start" true (Clock.now c >= t0))

let test_equal_instant_fifo impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let at = Clock.now c +. 0.01 in
      List.iter
        (fun i ->
          ignore (Clock.schedule_at c ~time:at (fun () -> order := i :: !order)))
        [ 1; 2; 3; 4 ];
      pump c ~what:"equal-instant batch" (fun () -> List.length !order = 4);
      Alcotest.(check (list int)) "FIFO at one instant" [ 1; 2; 3; 4 ]
        (List.rev !order))

let test_zero_and_negative_delay impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let fired_inside_schedule = ref false in
      ignore (Clock.schedule c ~delay:0.0 (fun () -> order := 1 :: !order));
      ignore (Clock.schedule c ~delay:(-5.0) (fun () -> order := 2 :: !order));
      ignore
        (Clock.schedule_at c ~time:(Clock.now c -. 100.0) (fun () ->
             order := 3 :: !order));
      (* Nothing may have run synchronously inside schedule. *)
      fired_inside_schedule := !order <> [];
      pump c ~what:"due-now batch" (fun () -> List.length !order = 3);
      Alcotest.(check bool) "never fires inside schedule" false
        !fired_inside_schedule;
      Alcotest.(check (list int)) "past deadlines clamp to now, FIFO"
        [ 1; 2; 3 ] (List.rev !order))

let test_cancel_idempotent impl () =
  impl.with_clock (fun c ->
      let fired = ref false and witness = ref false in
      let h = Clock.schedule c ~delay:0.005 (fun () -> fired := true) in
      Alcotest.(check bool) "pending" false (Clock.cancelled h);
      Clock.cancel h;
      Clock.cancel h;
      Alcotest.(check bool) "cancelled" true (Clock.cancelled h);
      ignore (Clock.schedule c ~delay:0.01 (fun () -> witness := true));
      pump c ~what:"witness event" (fun () -> !witness);
      Alcotest.(check bool) "cancelled event never fires" false !fired)

let test_cancel_after_fire_noop impl () =
  impl.with_clock (fun c ->
      let count = ref 0 in
      let h = Clock.schedule c ~delay:0.005 (fun () -> incr count) in
      pump c ~what:"event firing" (fun () -> !count = 1);
      (* The event is spent; cancel must not raise or un-run it. *)
      Clock.cancel h;
      Clock.cancel h;
      let witness = ref false in
      ignore (Clock.schedule c ~delay:0.005 (fun () -> witness := true));
      pump c ~what:"post-cancel witness" (fun () -> !witness);
      Alcotest.(check int) "fired exactly once" 1 !count)

let test_cancel_self_from_callback impl () =
  impl.with_clock (fun c ->
      let fired = ref false in
      let h = ref None in
      let cb () =
        fired := true;
        (* Cancelling the very handle that is firing is a no-op. *)
        Option.iter Clock.cancel !h
      in
      h := Some (Clock.schedule c ~delay:0.005 cb);
      pump c ~what:"self-cancelling callback" (fun () -> !fired))

let test_cancel_peer_from_callback impl () =
  impl.with_clock (fun c ->
      let b_fired = ref false and a_fired = ref false in
      let at = Clock.now c +. 0.01 in
      let hb = ref None in
      (* A and B are due at the same instant; A fires first (FIFO) and
         cancels B, so B must not run even though it is already due. *)
      ignore
        (Clock.schedule_at c ~time:at (fun () ->
             a_fired := true;
             Option.iter Clock.cancel !hb));
      hb := Some (Clock.schedule_at c ~time:at (fun () -> b_fired := true));
      let witness = ref false in
      ignore (Clock.schedule c ~delay:0.02 (fun () -> witness := true));
      pump c ~what:"cancel-peer witness" (fun () -> !witness);
      Alcotest.(check bool) "canceller ran" true !a_fired;
      Alcotest.(check bool) "due-but-cancelled peer did not" false !b_fired)

let test_post_reentrancy impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let mark i () = order := i :: !order in
      (* Posting from inside a callback must defer to the pump, not run
         synchronously, and must preserve posting order. *)
      Clock.post c (fun () ->
          mark 1 ();
          Clock.post c (fun () -> mark 3 ());
          Clock.post c (fun () -> mark 4 ());
          Alcotest.(check (list int)) "nested posts deferred" [ 1 ]
            (List.rev !order));
      Clock.post c (fun () -> mark 2 ());
      pump c ~what:"posted thunks" (fun () -> List.length !order = 4);
      Alcotest.(check (list int)) "posts run in order" [ 1; 2; 3; 4 ]
        (List.rev !order))

(* A post is a schedule at [now]: timers already due, a delay-0 one
   and one whose deadline has passed, run first. *)
let test_post_after_due impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let mark i () = order := i :: !order in
      ignore (Clock.schedule c ~delay:0.0 (mark 1));
      ignore (Clock.schedule_at c ~time:(Clock.now c -. 100.0) (mark 2));
      Clock.post c (mark 3);
      pump c ~what:"timers and post" (fun () -> List.length !order = 3);
      Alcotest.(check (list int)) "post after the due timers" [ 1; 2; 3 ]
        (List.rev !order))

let test_schedule_from_callback impl () =
  impl.with_clock (fun c ->
      let chain = ref 0 in
      let rec step () =
        incr chain;
        if !chain < 5 then ignore (Clock.schedule c ~delay:0.002 step)
      in
      ignore (Clock.schedule c ~delay:0.002 step);
      pump c ~what:"timer chain" (fun () -> !chain = 5);
      Alcotest.(check int) "chain of rescheduled timers" 5 !chain)

(* Re-arming is cancel + schedule on the same handle: the event takes
   the FIFO position of a fresh schedule, fires once at its last key,
   and a fired or cancelled handle is scheduled again. *)
let test_rearm impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let mark i () = order := i :: !order in
      let at = Clock.now c +. 0.01 in
      let h1 = Clock.schedule_at c ~time:at (mark 1) in
      ignore (Clock.schedule_at c ~time:at (mark 2));
      Clock.rearm_at c h1 ~time:at;
      Alcotest.(check bool) "pending" false (Clock.cancelled h1);
      pump c ~what:"re-armed pair" (fun () -> List.length !order = 2);
      Alcotest.(check (list int)) "behind a later schedule" [ 2; 1 ]
        (List.rev !order);
      Clock.rearm c h1 ~delay:0.002;
      pump c ~what:"fired handle re-armed" (fun () -> List.length !order = 3);
      Clock.cancel h1;
      Clock.rearm c h1 ~delay:0.002;
      Alcotest.(check bool) "re-armed is not cancelled" false
        (Clock.cancelled h1);
      pump c ~what:"cancelled handle re-armed" (fun () -> List.length !order = 4);
      Alcotest.(check (list int)) "one firing per arming" [ 2; 1; 1; 1 ]
        (List.rev !order))

let test_rearm_postpones impl () =
  impl.with_clock (fun c ->
      let fired = ref false and witness = ref false in
      let h = Clock.schedule c ~delay:0.005 (fun () -> fired := true) in
      Clock.rearm c h ~delay:0.05;
      ignore
        (Clock.schedule c ~delay:0.01 (fun () -> witness := not !fired));
      pump c ~what:"postponed event" (fun () -> !fired);
      Alcotest.(check bool) "not at its first deadline" true !witness)

let test_rearm_from_callback impl () =
  impl.with_clock (fun c ->
      let count = ref 0 and h = ref None in
      h :=
        Some
          (Clock.schedule c ~delay:0.002 (fun () ->
               incr count;
               if !count < 3 then
                 Option.iter (fun h -> Clock.rearm c h ~delay:0.002) !h));
      pump c ~what:"re-armed chain" (fun () -> !count = 3);
      let witness = ref false in
      ignore (Clock.schedule c ~delay:0.01 (fun () -> witness := true));
      pump c ~what:"post-chain witness" (fun () -> !witness);
      Alcotest.(check int) "chain of re-armed timers" 3 !count)

(* A past [rearm_at] clamps to the clock's [now], not to an earlier
   instant: the event joins the due batch in FIFO order.  The sleep
   lets a live clock's wall time run ahead of its heap's. *)
let test_rearm_at_past impl () =
  impl.with_clock (fun c ->
      let order = ref [] in
      let mark i () = order := i :: !order in
      Unix.sleepf 0.002;
      let h = Clock.schedule c ~delay:0.05 (mark 1) in
      ignore (Clock.schedule c ~delay:0.0 (mark 2));
      ignore (Clock.schedule_at c ~time:(Clock.now c -. 100.0) (mark 3));
      Clock.rearm_at c h ~time:(Clock.now c -. 100.0);
      ignore (Clock.schedule c ~delay:0.0 (mark 4));
      pump c ~what:"re-armed due batch" (fun () -> List.length !order = 4);
      Alcotest.(check (list int)) "at now, FIFO, after the due timers"
        [ 2; 3; 1; 4 ] (List.rev !order))

let cases impl =
  let tc name f = Alcotest.test_case name `Quick (f impl) in
  ( "contract (" ^ impl.name ^ ")",
    [ tc "monotonic now" test_now_monotonic;
      tc "equal-instant FIFO" test_equal_instant_fifo;
      tc "zero/negative delays" test_zero_and_negative_delay;
      tc "cancel idempotent" test_cancel_idempotent;
      tc "cancel after fire no-op" test_cancel_after_fire_noop;
      tc "cancel self in callback" test_cancel_self_from_callback;
      tc "cancel due peer in callback" test_cancel_peer_from_callback;
      tc "post reentrancy" test_post_reentrancy;
      tc "post after due timers" test_post_after_due;
      tc "reschedule from callback" test_schedule_from_callback;
      tc "rearm is cancel + schedule" test_rearm;
      tc "rearm postpones" test_rearm_postpones;
      tc "rearm from callback" test_rearm_from_callback;
      tc "rearm_at past fires at now" test_rearm_at_past ])

let () = Alcotest.run "bgp_clock" [ cases sim_impl; cases live_impl ]
