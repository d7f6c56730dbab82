type operation =
  | Startup_announce
  | Ending_withdraw
  | Incremental_no_fib_change
  | Incremental_fib_change
  | Corrupted_storm
  | Session_flaps
  | Mrt_replay
  | Flap_damping
  | Subscriber_churn

type packet_size = Small | Large

type t = { id : int; operation : operation; packet_size : packet_size }

let all =
  [ { id = 1; operation = Startup_announce; packet_size = Small };
    { id = 2; operation = Startup_announce; packet_size = Large };
    { id = 3; operation = Ending_withdraw; packet_size = Small };
    { id = 4; operation = Ending_withdraw; packet_size = Large };
    { id = 5; operation = Incremental_no_fib_change; packet_size = Small };
    { id = 6; operation = Incremental_no_fib_change; packet_size = Large };
    { id = 7; operation = Incremental_fib_change; packet_size = Small };
    { id = 8; operation = Incremental_fib_change; packet_size = Large } ]

(* Adversarial extensions (not part of the paper's Table I, so not in
   [all]: Table III iterates [all] and must keep its exact shape). *)
let adversarial =
  [ { id = 9; operation = Corrupted_storm; packet_size = Large };
    { id = 10; operation = Session_flaps; packet_size = Large } ]

(* Real-trace scenarios: MRT table load + update replay, and the flap
   storm with RFC 2439 damping enabled (also outside Table I/III). *)
let mrt =
  [ { id = 13; operation = Mrt_replay; packet_size = Large };
    { id = 14; operation = Flap_damping; packet_size = Large } ]

(* Subscriber-edge churn (scenario 16): batched /32 injection,
   steady-state session churn, failover sweep.  The multi-router
   scenarios 11, 12 and 15 are driven by [Bgp_topo] and have no
   Scenario.t; 16 goes through the single-DUT harness, so it does. *)
let churn = [ { id = 16; operation = Subscriber_churn; packet_size = Large } ]

let of_id id =
  List.find_opt (fun s -> s.id = id) (all @ adversarial @ mrt @ churn)

let of_id_exn id =
  match of_id id with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Scenario.of_id_exn: %d not in 1-10, 13, 14, 16" id)

let packing ?(large = 500) t =
  match t.packet_size with Small -> 1 | Large -> large

let forwarding_table_changes t =
  match t.operation with
  | Startup_announce | Ending_withdraw | Incremental_fib_change -> true
  | Corrupted_storm | Session_flaps -> true  (* flush + re-install per fault *)
  | Mrt_replay -> true (* withdrawals in the trace remove FIB routes *)
  | Flap_damping -> true (* flush + suppress + reuse re-install *)
  | Subscriber_churn -> true (* every Up/Down moves a /32; failover sweeps all *)
  | Incremental_no_fib_change -> false

let measures_phase t =
  match t.operation with Startup_announce -> 1 | _ -> 3

let uses_speaker2 t =
  match t.operation with
  | Incremental_no_fib_change | Incremental_fib_change -> true
  | Corrupted_storm | Session_flaps -> true  (* export side must recover too *)
  | Mrt_replay | Flap_damping -> true (* replay/flap effects observed at s2 *)
  | Subscriber_churn -> true (* churn + failover sweep observed at s2 *)
  | Startup_announce | Ending_withdraw -> false

let name t = Printf.sprintf "scenario-%d" t.id

let op_string = function
  | Startup_announce -> "start-up table load (announcements)"
  | Ending_withdraw -> "ending (withdrawals)"
  | Incremental_no_fib_change -> "incremental, longer path (no FIB change)"
  | Incremental_fib_change -> "incremental, shorter path (FIB change)"
  | Corrupted_storm -> "adversarial: corrupted-update storm"
  | Session_flaps -> "adversarial: session flaps mid-measurement"
  | Mrt_replay -> "MRT: recorded table load + update-trace replay"
  | Flap_damping -> "MRT: flap storm under RFC 2439 route flap damping"
  | Subscriber_churn -> "churn: subscriber-edge /32 churn + failover (BNG scale)"

let describe t =
  Printf.sprintf "%s: %s, %s packets" (name t) (op_string t.operation)
    (match t.packet_size with Small -> "small" | Large -> "large")

let pp ppf t = Format.pp_print_string ppf (describe t)

let table1 () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Table I: BGP benchmark scenarios\n";
  Buffer.add_string b
    "+----+----------------------+----------+-------------+--------+\n";
  Buffer.add_string b
    "| id | operation            | message  | FIB changes | packet |\n";
  Buffer.add_string b
    "+----+----------------------+----------+-------------+--------+\n";
  List.iter
    (fun s ->
      let op, msg =
        match s.operation with
        | Startup_announce -> ("start-up", "ANNOUNCE")
        | Ending_withdraw -> ("ending", "WITHDRAW")
        | Incremental_no_fib_change -> ("incremental", "ANNOUNCE")
        | Incremental_fib_change -> ("incremental", "ANNOUNCE")
        | Corrupted_storm -> ("adversarial", "CORRUPT")
        | Session_flaps -> ("adversarial", "FLAP")
        | Mrt_replay -> ("mrt", "REPLAY")
        | Flap_damping -> ("mrt", "FLAP")
        | Subscriber_churn -> ("churn", "CHURN")
      in
      Buffer.add_string b
        (Printf.sprintf "| %2d | %-20s | %-8s | %-11s | %-6s |\n" s.id op msg
           (if forwarding_table_changes s then "yes" else "no")
           (match s.packet_size with Small -> "small" | Large -> "large")))
    all;
  Buffer.add_string b
    "+----+----------------------+----------+-------------+--------+\n";
  Buffer.contents b
