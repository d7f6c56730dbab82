(* A partitioned discrete-event engine: P independent per-partition
   event queues ({!Engine.t}) coordinated by a conservative-lookahead
   window barrier.

   Safe horizon.  Let L be the minimum latency over cross-partition
   links (registered by {!register_cross_latency}).  Any event a
   partition executes at time t can influence another partition no
   earlier than t + L — the only cross-partition interaction is a
   mailbox post whose delivery time the poster derives from a link of
   latency >= L.  Hence inside a window [W, W + L) every partition can
   drain its own queue independently: nothing a peer does in the same
   window can land before W + L.  At the window barrier the mailboxes
   are flushed (in deterministic partition-major, send order) into the
   target queues, and the next window starts.  The synchronization is
   exact, not approximate: no cross-partition event is ever delivered
   late or reordered against anything it could causally affect.

   Determinism.  Each partition orders its events by the usual
   (time, seq) key of its own queue; mailbox flushes assign seqs in
   (source partition, send order) — a fixed order — so a run's event
   schedule is a pure function of the model, never of thread timing.
   With one partition there are no mailboxes and [run_until] is exactly
   [Engine.run ~until]: bit-identical to the unpartitioned engine. *)

module Engine = Bgp_engine.Engine

type outbox = (float * (unit -> unit)) list ref

type t = {
  parts : Engine.t array;
  boxes : outbox array array;  (* boxes.(src).(dst), src <> dst *)
  mutable lookahead : float;   (* min cross-partition latency; +inf when none *)
  mutable worker_init : int -> unit;
}

let create ?(parts = 1) () =
  if parts < 1 then invalid_arg "Pengine.create: need at least one partition";
  { parts = Array.init parts (fun _ -> Engine.create ());
    boxes = Array.init parts (fun _ -> Array.init parts (fun _ -> ref []));
    lookahead = infinity;
    worker_init = (fun _ -> ()) }

let n_parts t = Array.length t.parts
let part t i = t.parts.(i)
let now t = Engine.now t.parts.(0)
let set_worker_init t f = t.worker_init <- f

let register_cross_latency t lat =
  if lat <= 0.0 then
    invalid_arg
      "Pengine.register_cross_latency: cross-partition links need positive \
       latency (the conservative lookahead window)";
  if lat < t.lookahead then t.lookahead <- lat

let post t ~src ~dst ~time fn =
  if src = dst then ignore (Engine.schedule_at t.parts.(src) ~time fn)
  else begin
    let box = t.boxes.(src).(dst) in
    box := (time, fn) :: !box
  end

(* Drain every mailbox into its target queue.  Only called with all
   partitions parked at a barrier; iteration order (source-major, then
   send order) fixes the seq assignment, hence same-instant tie-breaks,
   deterministically. *)
let flush t =
  let n = n_parts t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let box = t.boxes.(src).(dst) in
        match !box with
        | [] -> ()
        | posts ->
          box := [];
          List.iter
            (fun (time, fn) -> ignore (Engine.schedule_at t.parts.(dst) ~time fn))
            (List.rev posts)
      end
    done
  done

let next_time t =
  Array.fold_left
    (fun acc p ->
      match (acc, Engine.next_time p) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (Float.min a b))
    None t.parts

let dispatched t i = Engine.dispatched t.parts.(i)

let drain eng ~bound ~inclusive =
  if inclusive then Engine.run ~until:bound eng
  else Engine.run_before eng ~until:bound

(* ------------------------------------------------------------------ *)
(* The worker crew                                                     *)
(* ------------------------------------------------------------------ *)

(* One process-wide crew of worker domains serves every engine: worker
   k always drains partition k, so it stays bound to shard k across
   engines.  Spawning and joining workers in each run_until cost about
   a fifth of a 5000-node scenario-15 run (16 calls), so the crew is
   spawned on the first window that needs it, grows to the largest
   [parts - 1] asked for, and lives for the process; a parked worker
   does not keep the process from exiting.

   A window is one immutable [job] published through [current], whose
   epoch rises by one per window, and completed by the [remaining]
   countdown.  Each side waits by spinning up to [spin_bound]
   [Domain.cpu_relax] rounds and then parking on its own [parker].
   The park cannot lose a wakeup: a waiter sets its [parked] flag,
   then re-reads the awaited atomic under its mutex before it waits,
   and a releaser writes that atomic, then reads [parked] and signals
   under the mutex; as all four are atomic, at least one of the two
   sees the other's write.  A side spins only when the driver and the
   window's workers fit on the host's cores; otherwise a spinner holds
   the core the domain it waits for needs, and both sides park at once.

   Happens-before: the driver writes partition state (flushes, clocks)
   before publishing the job, which each worker reads atomically before
   its drain; a worker's writes (its partition, [failed]) precede its
   countdown decrement, which the driver reads atomically before it
   touches any partition again. *)

type job = {
  epoch : int;
  first : bool;           (* the first window of its run_until call *)
  engines : Engine.t array;  (* the engine's partitions *)
  init : int -> unit;
  active : int;           (* workers 1..active drain this window *)
  spin : bool;
  bound : float;
  inclusive : bool;
}

(* Where one side parks; a releaser signals [cv] when it sees [parked]. *)
type parker = { m : Mutex.t; cv : Condition.t; parked : bool Atomic.t }

let parker () =
  { m = Mutex.create (); cv = Condition.create (); parked = Atomic.make false }

type worker = {
  k : int;
  park : parker;
  mutable failed : exn option;  (* this window's exception, for the driver *)
}

(* About 0.5 ms at ~30 ns a round (2-vCPU x86 host): longer than the
   mean window of a 5000-node scenario-15 run (~0.3 ms), so a worker
   that finishes first is usually still spinning when the next window
   is released; short enough that a crew idle between run_until calls
   soon parks. *)
let spin_bound = 1 lsl 14

let current =
  Atomic.make
    { epoch = 0; first = false; engines = [||]; init = ignore; active = 0;
      spin = false; bound = 0.0; inclusive = false }

let remaining = Atomic.make 0
let driver = parker ()
let busy = Atomic.make false  (* a multi-partition run_until holds the crew *)
let workers : worker array ref = ref [||]  (* !workers.(k - 1): partition k *)

(* Spin-then-park on [p] until [ready ()]. *)
let await p ~spin ~ready =
  let rec spin_for i =
    if ready () then ()
    else if i > 0 then begin Domain.cpu_relax (); spin_for (i - 1) end
    else begin
      Mutex.lock p.m;
      Atomic.set p.parked true;
      while not (ready ()) do Condition.wait p.cv p.m done;
      Atomic.set p.parked false;
      Mutex.unlock p.m
    end
  in
  spin_for (if spin then spin_bound else 0)

let wake p =
  if Atomic.get p.parked then begin
    Mutex.lock p.m;
    Condition.signal p.cv;
    Mutex.unlock p.m
  end

(* A worker drains partition k in every window that has k <= active;
   every window of a run_until has the same [active], so an active
   worker sees the call's first window. *)
let worker_loop w start () =
  let seen = ref start and spin = ref false in
  while true do
    await w.park ~spin:!spin ~ready:(fun () ->
        (Atomic.get current).epoch <> !seen);
    let j = Atomic.get current in
    seen := j.epoch;
    spin := j.spin && w.k <= j.active;
    if w.k <= j.active then begin
      (try
         if j.first then j.init w.k;
         drain j.engines.(w.k) ~bound:j.bound ~inclusive:j.inclusive
       with e -> w.failed <- Some e);
      if Atomic.fetch_and_add remaining (-1) = 1 then wake driver
    end
  done

let grow active =
  let start = (Atomic.get current).epoch in
  while Array.length !workers < active do
    let k = Array.length !workers + 1 in
    let w = { k; park = parker (); failed = None } in
    ignore (Domain.spawn (worker_loop w start));
    workers := Array.append !workers [| w |]
  done

(* One window: release workers 1..n-1, drain partition 0 on the calling
   domain, wait for the countdown. *)
let run_window t ~first ~spin ~bound ~inclusive =
  let active = n_parts t - 1 in
  grow active;
  let epoch = (Atomic.get current).epoch + 1 in
  Atomic.set remaining active;
  Atomic.set current
    { epoch; first; engines = t.parts; init = t.worker_init; active; spin;
      bound; inclusive };
  for i = 0 to active - 1 do wake !workers.(i).park done;
  let mine =
    try drain t.parts.(0) ~bound ~inclusive; None with e -> Some e
  in
  await driver ~spin ~ready:(fun () -> Atomic.get remaining = 0);
  let failed = ref (Option.map (fun e -> (0, e)) mine) in
  for i = 0 to active - 1 do
    let w = !workers.(i) in
    (match (!failed, w.failed) with
     | None, Some e -> failed := Some (w.k, e)
     | _ -> ());
    w.failed <- None
  done;
  match !failed with None -> Ok () | Some f -> Error f

exception Partition_failed of int * exn

let run_windows t until =
  let spin = n_parts t <= Domain.recommended_domain_count () in
  let advance_all bound =
    (* Nothing left at or below [bound]: just move every clock, the
       same way [Engine.run ~until] does on a quiet queue. *)
    Array.iter (fun p -> Engine.run ~until:bound p) t.parts
  in
  let rec loop first =
    (* Invariant: mailboxes empty, every partition clock equal. *)
    match next_time t with
    | None -> advance_all until; Ok ()
    | Some tn when tn > until -> advance_all until; Ok ()
    | Some tn ->
      let wend = tn +. t.lookahead in
      if wend >= until then begin
        (* Final window: inclusive, so events at exactly [until] fire,
           matching [Engine.run ~until]. *)
        match run_window t ~first ~spin ~bound:until ~inclusive:true with
        | Error _ as e -> e
        | Ok () -> flush t; Ok ()
      end
      else begin
        match run_window t ~first ~spin ~bound:wend ~inclusive:false with
        | Error _ as e -> e
        | Ok () -> flush t; loop false
      end
  in
  loop true

let run_until t until =
  if n_parts t = 1 then Engine.run ~until t.parts.(0)
  else begin
    if not (Atomic.compare_and_set busy false true) then
      invalid_arg
        "Pengine.run_until: another multi-partition run_until holds the \
         worker crew";
    match
      Fun.protect ~finally:(fun () -> Atomic.set busy false) (fun () ->
          (* Posts parked since the previous call (e.g. from its final,
             inclusive window) are delivered before anything runs. *)
          flush t;
          run_windows t until)
    with
    | Ok () -> ()
    | Error (k, e) -> raise (Partition_failed (k, e))
  end
