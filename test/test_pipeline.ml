(* The staged update pipeline: per-stage accounting against the
   router's transaction counters, MRAI hold-back through the stage
   hooks, and — the refactor's contract — per-stage cycle totals that
   reproduce the pre-pipeline hardwired cost formulas exactly for both
   the XORP and IOS execution models. *)

module Engine = Bgp_engine.Engine
module Link = Bgp_engine.Link
module Clock = Bgp_engine.Clock
module Sched = Bgp_sim.Sched
module Channel = Bgp_netsim.Channel
module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Rib_manager = Bgp_rib.Rib_manager
module Speaker = Bgp_speaker.Speaker
module Workload = Bgp_speaker.Workload
module Pipeline = Bgp_pipeline.Pipeline
module Metrics = Bgp_stats.Metrics
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Peer = Bgp_route.Peer

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int

(* ------------------------------------------------------------------ *)
(* Registry + pipeline construction units                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a" in
  let h = Metrics.histogram m "b" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.observe h 2.0;
  Metrics.observe h 6.0;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "hist count" 2 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "hist sum" 8.0 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "hist mean" 4.0 (Metrics.hist_mean h);
  (try
     ignore (Metrics.counter m "a");
     Alcotest.fail "duplicate name accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.histogram m "a");
     Alcotest.fail "duplicate cross-kind name accepted"
   with Invalid_argument _ -> ());
  Metrics.reset_all m;
  Alcotest.(check int) "counter reset" 0 (Metrics.value c);
  Alcotest.(check int) "hist reset" 0 (Metrics.hist_count h);
  Alcotest.(check (list (pair string int)))
    "registration order survives reset"
    [ ("a", 0) ] (Metrics.counters m)

let test_pipeline_validation () =
  let mk layout table =
    let engine = Engine.create () in
    let clock = Clock.of_engine engine in
    let sched = Sched.create clock ~hz:1e9 ~pool:1.0 in
    ( sched,
      Pipeline.create ~clock ~sched ~metrics:(Metrics.create ()) ~layout
        ~trace_process:"test" table )
  in
  let free _ = 0.0 in
  let table = function
    | Pipeline.Wire_decode -> Pipeline.Proc ("p", free)
    | Pipeline.Decision -> Pipeline.Proc ("q", free)
    | _ -> Pipeline.Inline
  in
  (try
     ignore (mk (Pipeline.Fused_paced 0.1) table);
     Alcotest.fail "fused layout with two procs accepted"
   with Invalid_argument _ -> ());
  let sched, t = mk Pipeline.Pipelined table in
  Alcotest.(check (list string))
    "procs in stage order" [ "p"; "q" ]
    (List.map fst (Sched.take_accounting sched).Sched.acc_procs);
  Alcotest.(check (option string)) "inline stage has no proc" None
    (List.find
       (fun st -> st.Pipeline.st_stage = "export-policy")
       (Pipeline.stage_stats t))
      .Pipeline.st_proc

(* ------------------------------------------------------------------ *)
(* A two-speaker rig (the harness topology, without its phases)        *)
(* ------------------------------------------------------------------ *)

let peer1 =
  Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
    ~addr:(ip "192.0.2.1")

let peer2 =
  Peer.make ~id:1 ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
    ~addr:(ip "192.0.2.2")

let wait_until engine ~what cond =
  let deadline = Engine.now engine +. 50_000.0 in
  let rec go step =
    if cond () then ()
    else if Engine.now engine >= deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Engine.run ~until:(Engine.now engine +. step) engine;
      go (Float.min 2.0 (step *. 1.5))
    end
  in
  go 0.01

let wait_idle engine router ~what ~transactions =
  wait_until engine ~what (fun () ->
      (Router.counters router).Router.transactions >= transactions
      && Router.idle router)

type rig = {
  engine : Engine.t;
  router : Router.t;
  s1 : Speaker.t;
  s2 : Speaker.t option;
}

let make_rig ?mrai ?(two_peers = false) arch =
  let engine = Engine.create () in
  let clock = Clock.of_engine engine in
  let router =
    Router.create ?mrai clock arch ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let ch1 = Channel.create engine () in
  Router.attach_peer router ~peer:peer1 ~link:(Channel.endpoint ch1 Channel.B);
  let s1 =
    Speaker.create clock ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~link:(Channel.endpoint ch1 Channel.A)
  in
  Speaker.start s1;
  wait_until engine ~what:"speaker 1 up" (fun () -> Speaker.established s1);
  let s2 =
    if not two_peers then None
    else begin
      let ch2 = Channel.create engine () in
      Router.attach_peer router ~peer:peer2
        ~link:(Channel.endpoint ch2 Channel.B);
      let s2 =
        Speaker.create clock ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
          ~link:(Channel.endpoint ch2 Channel.A)
      in
      Speaker.start s2;
      wait_until engine ~what:"speaker 2 up" (fun () ->
          Speaker.established s2);
      Some s2
    end
  in
  { engine; router; s1; s2 }

let stage r name =
  match
    List.find_opt
      (fun s -> s.Pipeline.st_stage = name)
      (Router.stage_stats r.router)
  with
  | Some s -> s
  | None -> Alcotest.failf "no stage %s" name

(* ------------------------------------------------------------------ *)
(* (a) Stage counters vs. router transactions, mixed workload          *)
(* ------------------------------------------------------------------ *)

let check_stage_accounting arch =
  let r = make_rig arch in
  let attrs =
    Workload.attrs ~speaker_asn:(asn 65001) ~next_hop:(ip "192.0.2.1")
      ~path_len:3 ()
  in
  let table = Bgp_addr.Prefix_gen.table ~seed:7 ~n:60 () in
  let ann_msgs = Speaker.announce r.s1 ~packing:4 ~attrs table in
  wait_idle r.engine r.router ~what:"announce burst" ~transactions:60;
  let wd_msgs =
    Speaker.withdraw r.s1 ~packing:3 (Array.sub table 0 30)
  in
  wait_idle r.engine r.router ~what:"withdraw burst" ~transactions:90;
  let c = Router.counters r.router in
  Alcotest.(check int) "transactions" 90 c.Router.transactions;
  (* Every prefix of every UPDATE flowed through decode and Adj-RIB-In
     exactly once: their unit counters must re-derive the router's
     transaction count. *)
  Alcotest.(check int) "wire-decode units = transactions" 90
    (stage r "wire-decode").Pipeline.st_units;
  Alcotest.(check int) "adj-rib-in units = transactions" 90
    (stage r "adj-rib-in").Pipeline.st_units;
  (* One batch per UPDATE message. *)
  Alcotest.(check int) "batches = update messages" (ann_msgs + wd_msgs)
    (stage r "wire-decode").Pipeline.st_batches;
  Alcotest.(check int) "batches = updates_rx" c.Router.updates_rx
    (stage r "wire-decode").Pipeline.st_batches;
  (* Decision considered one candidate per fresh announcement, none per
     withdrawal; FIB saw 60 adds + 30 withdraws. *)
  Alcotest.(check int) "decision units = candidates" 60
    (stage r "decision").Pipeline.st_units;
  Alcotest.(check int) "fib-install units = deltas" 90
    (stage r "fib-install").Pipeline.st_units;
  (* The RIB's registry-backed counters agree. *)
  Alcotest.(check int) "rib.updates_processed" 90
    (Rib_manager.stats (Router.rib r.router)).Rib_manager.updates_processed;
  (* reset_counters clears the whole registry: router, rib, stages. *)
  Router.reset_counters r.router;
  Alcotest.(check int) "stage counters reset" 0
    (stage r "wire-decode").Pipeline.st_units;
  Alcotest.(check int) "rib counters reset" 0
    (Rib_manager.stats (Router.rib r.router)).Rib_manager.updates_processed;
  Alcotest.(check int) "router counters reset" 0
    (Router.counters r.router).Router.transactions

let test_stage_accounting_xorp () = check_stage_accounting Arch.pentium3
let test_stage_accounting_ios () = check_stage_accounting Arch.cisco3620

(* ------------------------------------------------------------------ *)
(* (b) MRAI holds re-advertisement until the timer fires               *)
(* ------------------------------------------------------------------ *)

let test_mrai_holds_readvertisement () =
  let interval = 30.0 in
  let r = make_rig ~mrai:interval ~two_peers:true Arch.pentium3 in
  let s2 = Option.get r.s2 in
  let prefix = Bgp_addr.Prefix.of_string_exn "203.0.113.0/24" in
  let attrs len =
    Workload.attrs ~speaker_asn:(asn 65001) ~next_hop:(ip "192.0.2.1")
      ~path_len:len ()
  in
  (* First advertisement: the peer's MRAI timer is unarmed, so the
     router flushes immediately and arms it. *)
  ignore (Speaker.announce r.s1 ~packing:1 ~attrs:(attrs 3) [| prefix |]);
  wait_idle r.engine r.router ~what:"first announce" ~transactions:1;
  wait_until r.engine ~what:"peer 2 receives initial route" (fun () ->
      Hashtbl.mem (Speaker.received_prefix_set s2) prefix);
  let u0 = Speaker.updates_received s2 in
  let armed_at = Engine.now r.engine in
  (* Re-advertise with a different path while the timer is armed: the
     decision changes, but the advertisement must wait. *)
  ignore (Speaker.announce r.s1 ~packing:1 ~attrs:(attrs 5) [| prefix |]);
  wait_idle r.engine r.router ~what:"second announce" ~transactions:2;
  Alcotest.(check bool) "still within the MRAI window" true
    (Engine.now r.engine < armed_at +. interval);
  Alcotest.(check int) "re-advertisement held back" u0
    (Speaker.updates_received s2);
  Alcotest.(check int) "held advertisement counted by the MRAI stage" 1
    (stage r "mrai-pacing").Pipeline.st_units;
  (* Let the timer fire: the buffered advertisement goes out. *)
  Engine.run ~until:(armed_at +. interval +. 5.0) r.engine;
  wait_until r.engine ~what:"deferred flush" (fun () ->
      Speaker.updates_received s2 > u0);
  Alcotest.(check int) "exactly one deferred update" (u0 + 1)
    (Speaker.updates_received s2)

(* ------------------------------------------------------------------ *)
(* (c) Per-stage cycles reproduce the pre-pipeline cost formulas       *)
(* ------------------------------------------------------------------ *)

(* Expected totals computed from the original hardwired formulas for a
   single-peer, packing-1 workload of [n] fresh announcements followed
   by [n] withdrawals: every announcement selects its 1 candidate and
   adds a FIB entry; every withdrawal has 0 candidates and removes one.
   No advertisements are emitted (the only peer is the source: split
   horizon).  Byte counts mirror the speaker's message construction. *)
type expected = { e_wire : float; e_policy : float; e_decision : float;
                  e_fib : float }

let expected_cycles ~(model : [ `Xorp | `Ios ]) (c : Arch.cost_model) attrs
    table =
  let fi = float_of_int in
  let e = { e_wire = 0.0; e_policy = 0.0; e_decision = 0.0; e_fib = 0.0 } in
  Array.fold_left
    (fun e p ->
      let ann_bytes = Codec.encoded_size (Msg.announcement attrs [ p ]) in
      let wd_bytes = Codec.encoded_size (Msg.withdrawal [ p ]) in
      let wire =
        (* announce + withdraw receive paths *)
        c.Arch.cyc_per_msg_rx
        +. (fi ann_bytes *. c.Arch.cyc_per_byte)
        +. c.Arch.cyc_per_prefix_parse
        +. c.Arch.cyc_per_msg_rx
        +. (fi wd_bytes *. c.Arch.cyc_per_byte)
        +. c.Arch.cyc_per_withdraw_parse
      in
      let policy, decision, fib =
        match model with
        | `Xorp ->
          ( (* one prefix x one peer, twice *)
            2.0 *. c.Arch.cyc_per_policy_unit,
            (* announce: 1 candidate + 1 Loc-RIB change; withdraw: 0
               candidates + 1 change + the half-lookup penalty *)
            c.Arch.cyc_per_candidate +. c.Arch.cyc_per_rib_change
            +. c.Arch.cyc_per_rib_change
            +. (0.5 *. c.Arch.cyc_per_candidate),
            (* one FEA IPC + one delta each way *)
            2.0 *. (c.Arch.cyc_per_fib_msg +. c.Arch.cyc_per_fib_delta) )
        | `Ios ->
          ( 0.0,
            (* no half-lookup penalty in the monolithic model *)
            c.Arch.cyc_per_candidate +. (2.0 *. c.Arch.cyc_per_rib_change),
            (* no FEA IPC term *)
            2.0 *. c.Arch.cyc_per_fib_delta )
      in
      { e_wire = e.e_wire +. wire; e_policy = e.e_policy +. policy;
        e_decision = e.e_decision +. decision; e_fib = e.e_fib +. fib })
    e table

let close what expected actual =
  let tol = 1e-6 *. Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.3f cycles, pipeline charged %.3f" what
      expected actual

let check_legacy_cycles ~model arch =
  let r = make_rig arch in
  let attrs =
    Workload.attrs ~speaker_asn:(asn 65001) ~next_hop:(ip "192.0.2.1")
      ~path_len:3 ()
  in
  let table = Bgp_addr.Prefix_gen.table ~seed:11 ~n:10 () in
  ignore (Speaker.announce r.s1 ~packing:1 ~attrs table);
  wait_idle r.engine r.router ~what:"announces" ~transactions:10;
  ignore (Speaker.withdraw r.s1 ~packing:1 table);
  wait_idle r.engine r.router ~what:"withdraws" ~transactions:20;
  let e = expected_cycles ~model arch.Arch.cost attrs table in
  let cycles name = (stage r name).Pipeline.st_cycles in
  close "wire-decode" e.e_wire (cycles "wire-decode");
  close "import-policy" e.e_policy (cycles "import-policy");
  close "decision" e.e_decision (cycles "decision");
  close "fib-install" e.e_fib (cycles "fib-install");
  close "end-to-end total"
    (e.e_wire +. e.e_policy +. e.e_decision +. e.e_fib)
    (List.fold_left
       (fun acc s -> acc +. s.Pipeline.st_cycles)
       0.0 (Router.stage_stats r.router))

let test_legacy_cycles_xorp () = check_legacy_cycles ~model:`Xorp Arch.pentium3
let test_legacy_cycles_ios () = check_legacy_cycles ~model:`Ios Arch.cisco3620

(* ------------------------------------------------------------------ *)
(* (d) Off-pipeline work and the free cost model                       *)
(* ------------------------------------------------------------------ *)

let test_run_on_placement () =
  let engine = Engine.create () in
  let clock = Clock.of_engine engine in
  let sched = Sched.create clock ~hz:1e9 ~pool:1.0 in
  let t =
    Pipeline.create ~clock ~sched ~metrics:(Metrics.create ())
      ~layout:Pipeline.Pipelined ~trace_process:"test" (function
      | Pipeline.Wire_decode -> Pipeline.Proc ("p", fun _ -> 0.0)
      | _ -> Pipeline.Inline)
  in
  let inline = ref false in
  Pipeline.run_on t Pipeline.Fib_install ~cycles:1e9 (fun () ->
      inline := true);
  Alcotest.(check bool) "inline stage runs at once" true !inline;
  let ran_at = ref None in
  Pipeline.run_on t Pipeline.Wire_decode ~cycles:1e9 (fun () ->
      ran_at := Some (Engine.now engine));
  Alcotest.(check bool) "charged job waits" true (!ran_at = None);
  Engine.run ~until:0.5 engine;
  Alcotest.(check bool) "not before its cycles" true (!ran_at = None);
  Engine.run ~until:2.0 engine;
  Alcotest.(check (option (float 1e-9))) "after 1e9 cycles at 1 GHz"
    (Some 1.0) !ran_at

(* The zero cost model, as [Arch.free] or as a copy built field by
   field, gives a router no simulated CPU at all, on either software
   model. *)
let test_free_router_no_procs () =
  let copy =
    { Arch.xeon with
      Arch.name = "copy";
      cost = { Arch.free with Arch.cyc_per_msg_tx = 0.0 } }
  in
  List.iter
    (fun arch ->
      let clock = Clock.of_engine (Engine.create ()) in
      let r =
        Router.create clock arch ~local_asn:(asn 65000)
          ~router_id:(ip "10.255.0.1")
      in
      Alcotest.(check (list string))
        (arch.Arch.name ^ ": no scheduler process") []
        (List.map fst (Sched.take_accounting (Router.sched r)).Sched.acc_procs))
    [ Arch.unpaced; copy;
      { Arch.cisco3620 with Arch.name = "free-ios"; cost = Arch.free } ]

(* On the free cost model an UPDATE's re-export is sent from inside the
   UPDATE's own delivery: no scheduler job, no later event. *)
let test_free_reexport_inline () =
  let engine = Engine.create () in
  let clock = Clock.of_engine engine in
  let router =
    Router.create clock Arch.unpaced ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let delivering = ref false and updates_sent = ref [] in
  let ch1 = Channel.create engine () and ch2 = Channel.create engine () in
  let l1 = Channel.endpoint ch1 Channel.B in
  let l1 =
    { l1 with
      Link.set_receiver =
        (fun f ->
          l1.Link.set_receiver (fun bytes ->
              delivering := true;
              f bytes;
              delivering := false)) }
  in
  let l2 = Channel.endpoint ch2 Channel.B in
  let l2 =
    { l2 with
      Link.send =
        (fun bytes ->
          (* byte 18 of a BGP message is its type; 2 is UPDATE *)
          if String.length bytes > 18 && bytes.[18] = '\002' then
            updates_sent := !delivering :: !updates_sent;
          l2.Link.send bytes) }
  in
  Router.attach_peer router ~peer:peer1 ~link:l1;
  Router.attach_peer router ~peer:peer2 ~link:l2;
  let speaker as_ id ch =
    let s =
      Speaker.create clock ~asn:(asn as_) ~router_id:(ip id)
        ~link:(Channel.endpoint ch Channel.A)
    in
    Speaker.start s;
    wait_until engine ~what:"speaker up" (fun () -> Speaker.established s);
    s
  in
  let s1 = speaker 65001 "192.0.2.1" ch1 in
  let s2 = speaker 65002 "192.0.2.2" ch2 in
  updates_sent := [];
  let attrs =
    Workload.attrs ~speaker_asn:(asn 65001) ~next_hop:(ip "192.0.2.1")
      ~path_len:2 ()
  in
  ignore
    (Speaker.announce s1 ~packing:1 ~attrs
       [| Bgp_addr.Prefix.of_string_exn "203.0.113.0/24" |]);
  wait_until engine ~what:"re-export" (fun () ->
      Hashtbl.length (Speaker.received_prefix_set s2) = 1);
  Alcotest.(check (list bool)) "one UPDATE, sent during the delivery"
    [ true ] !updates_sent

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bgp pipeline"
    [ ( "registry",
        [ Alcotest.test_case "counters and histograms" `Quick
            test_metrics_registry ] );
      ( "construction",
        [ Alcotest.test_case "validation" `Quick test_pipeline_validation ] );
      ( "accounting",
        [ Alcotest.test_case "stage counters (xorp)" `Quick
            test_stage_accounting_xorp;
          Alcotest.test_case "stage counters (ios)" `Quick
            test_stage_accounting_ios ] );
      ( "mrai",
        [ Alcotest.test_case "holds re-advertisement" `Quick
            test_mrai_holds_readvertisement ] );
      ( "free costs",
        [ Alcotest.test_case "run_on follows the placement" `Quick
            test_run_on_placement;
          Alcotest.test_case "no scheduler process" `Quick
            test_free_router_no_procs;
          Alcotest.test_case "re-export inside the delivery" `Quick
            test_free_reexport_inline ] );
      ( "cost parity",
        [ Alcotest.test_case "xorp stage cycles = legacy formulas" `Quick
            test_legacy_cycles_xorp;
          Alcotest.test_case "ios stage cycles = legacy formulas" `Quick
            test_legacy_cycles_ios ] ) ]
