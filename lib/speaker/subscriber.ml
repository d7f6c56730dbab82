module Prefix = Bgp_addr.Prefix
module Ipv4 = Bgp_addr.Ipv4
module Prefix_gen = Bgp_addr.Prefix_gen

type config = {
  subscribers : int;
  batch : int;
  batch_interval : float;
  churn_rate : float;
  churn_duration : float;
  seed : int;
}

let default =
  { subscribers = 10_000; batch = 500; batch_interval = 0.02;
    churn_rate = 500.0; churn_duration = 2.0; seed = 42 }

type event_kind = Up | Down | Resync
type event = { ev_at : float; ev_idx : int; ev_kind : event_kind }

type t = {
  config : config;
  prefixes : Prefix.t array;
  plan : event list;
  final_up : bool array;
}

(* RFC 6598 shared address space for CGNAT: 100.64.0.0/10. *)
let pool_base = Ipv4.of_string_exn "100.64.0.0"
let pool_size = 1 lsl 22

let validate c =
  if c.subscribers < 1 then
    invalid_arg "Subscriber.create: subscribers must be >= 1";
  if c.subscribers > pool_size then
    invalid_arg
      (Printf.sprintf
         "Subscriber.create: %d subscribers exceed the 100.64.0.0/10 pool (%d)"
         c.subscribers pool_size);
  if c.batch < 1 then invalid_arg "Subscriber.create: batch must be >= 1";
  if c.batch_interval < 0.0 then
    invalid_arg "Subscriber.create: batch_interval must be >= 0";
  if c.churn_rate <= 0.0 then
    invalid_arg "Subscriber.create: churn_rate must be > 0";
  if c.churn_duration < 0.0 then
    invalid_arg "Subscriber.create: churn_duration must be >= 0"

(* Independent draws off the seed: stream [k] of the plan never
   correlates with stream [k+1] (SplitMix64 finalizer, same generator
   as the synthetic-table module). *)
let draw seed k = Prefix_gen.mix64 ((seed * 0x9E3779B9) + k)

let make_plan c =
  let n_events = int_of_float (c.churn_rate *. c.churn_duration) in
  let spacing = 1.0 /. c.churn_rate in
  let up = Array.make c.subscribers true in
  let plan = ref [] in
  for k = 1 to n_events do
    let r = draw c.seed k in
    let idx = abs (r mod c.subscribers) in
    let kind =
      if not up.(idx) then Up
      else if (r lsr 23) land 1 = 0 then Down
      else Resync
    in
    (match kind with
    | Up -> up.(idx) <- true
    | Down -> up.(idx) <- false
    | Resync -> ());
    plan := { ev_at = float_of_int k *. spacing; ev_idx = idx; ev_kind = kind }
            :: !plan
  done;
  (List.rev !plan, up)

let create c =
  validate c;
  let prefixes =
    Array.init c.subscribers (fun i -> Prefix.make (Ipv4.add pool_base i) 32)
  in
  let plan, final_up = make_plan c in
  { config = c; prefixes; plan; final_up }

let config t = t.config
let prefixes t = t.prefixes
let plan t = t.plan
let n_events t = List.length t.plan
let final_up t = t.final_up

let batches t =
  let c = t.config in
  let n = c.subscribers in
  let rec go k acc =
    let start = k * c.batch in
    if start >= n then List.rev acc
    else
      let len = min c.batch (n - start) in
      go (k + 1)
        ((float_of_int k *. c.batch_interval, Array.sub t.prefixes start len)
        :: acc)
  in
  go 0 []

let up_count t =
  Array.fold_left (fun acc up -> if up then acc + 1 else acc) 0 t.final_up

let up_prefixes t =
  let acc = ref [] in
  for i = Array.length t.final_up - 1 downto 0 do
    if t.final_up.(i) then acc := t.prefixes.(i) :: !acc
  done;
  !acc
