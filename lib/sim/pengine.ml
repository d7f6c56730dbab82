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

type outbox = (float * (unit -> unit)) list ref

type pool = {
  m : Mutex.t;
  cv : Condition.t;
  mutable epoch : int;
  mutable bound : float;
  mutable inclusive : bool;
  mutable remaining : int;
  mutable stop : bool;
  mutable failed : (int * exn) option;
  mutable workers : unit Domain.t array;
}

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
let lookahead t = t.lookahead
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

let pending t = Array.fold_left (fun acc p -> acc + Engine.pending p) 0 t.parts

let dispatched t i = Engine.dispatched t.parts.(i)

(* ------------------------------------------------------------------ *)
(* The window driver                                                   *)
(* ------------------------------------------------------------------ *)

let drain eng ~bound ~inclusive =
  if inclusive then Engine.run ~until:bound eng
  else Engine.run_before eng ~until:bound

let start_pool t =
  let n = n_parts t in
  let pool =
    { m = Mutex.create (); cv = Condition.create (); epoch = 0; bound = 0.0;
      inclusive = false; remaining = 0; stop = false; failed = None;
      workers = [||] }
  in
  let worker k () =
    t.worker_init k;
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock pool.m;
      while pool.epoch = !seen && not pool.stop do
        Condition.wait pool.cv pool.m
      done;
      if pool.stop then begin
        Mutex.unlock pool.m;
        running := false
      end
      else begin
        seen := pool.epoch;
        let bound = pool.bound and inclusive = pool.inclusive in
        Mutex.unlock pool.m;
        (try drain t.parts.(k) ~bound ~inclusive
         with e ->
           Mutex.lock pool.m;
           if pool.failed = None then pool.failed <- Some (k, e);
           Mutex.unlock pool.m);
        Mutex.lock pool.m;
        pool.remaining <- pool.remaining - 1;
        Condition.broadcast pool.cv;
        Mutex.unlock pool.m
      end
    done
  in
  pool.workers <- Array.init (n - 1) (fun i -> Domain.spawn (worker (i + 1)));
  pool

let stop_pool pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  Array.iter Domain.join pool.workers

(* One window: release the workers on partitions 1..n-1, drain
   partition 0 on the calling domain, wait for everyone. *)
let run_window t pool ~bound ~inclusive =
  let n = n_parts t in
  Mutex.lock pool.m;
  pool.bound <- bound;
  pool.inclusive <- inclusive;
  pool.remaining <- n - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  let my_exn = (try drain t.parts.(0) ~bound ~inclusive; None with e -> Some e) in
  Mutex.lock pool.m;
  while pool.remaining > 0 do
    Condition.wait pool.cv pool.m
  done;
  let worker_exn = pool.failed in
  Mutex.unlock pool.m;
  match (my_exn, worker_exn) with
  | Some e, _ -> Error (0, e)
  | None, Some (k, e) -> Error (k, e)
  | None, None -> Ok ()

exception Partition_failed of int * exn

let run_until t until =
  (* Posts parked since the previous call (e.g. from its final,
     inclusive window) are delivered before anything runs. *)
  flush t;
  if n_parts t = 1 then Engine.run ~until t.parts.(0)
  else begin
    let pool = start_pool t in
    let finish r =
      stop_pool pool;
      match r with
      | Ok () -> ()
      | Error (k, e) -> raise (Partition_failed (k, e))
    in
    let advance_all bound =
      (* Nothing left at or below [bound]: just move every clock, the
         same way [Engine.run ~until] does on a quiet queue. *)
      Array.iter (fun p -> Engine.run ~until:bound p) t.parts
    in
    let rec loop () =
      (* Invariant: mailboxes empty, every partition clock equal. *)
      match next_time t with
      | None -> advance_all until; Ok ()
      | Some tn when tn > until -> advance_all until; Ok ()
      | Some tn ->
        let wend = tn +. t.lookahead in
        if wend >= until then begin
          (* Final window: inclusive, so events at exactly [until] fire,
             matching [Engine.run ~until]. *)
          match run_window t pool ~bound:until ~inclusive:true with
          | Error _ as e -> e
          | Ok () -> flush t; Ok ()
        end
        else begin
          match run_window t pool ~bound:wend ~inclusive:false with
          | Error _ as e -> e
          | Ok () -> flush t; loop ()
        end
    in
    finish (loop ())
  end
