(* Scenario 16 (subscriber-edge churn) and the two churn-path bugfixes:
   the projected-size prefix-limit check and MRAI state cleared on
   session loss.  The two regression tests fail on the pre-fix code:
   the old limit check CEASEd a peer re-announcing its own routes at
   the limit, and the old MRAI path flushed a dead session's buffered
   advertisements into its next incarnation. *)

module Engine = Bgp_sim.Engine
module Channel = Bgp_netsim.Channel
module Router = Bgp_router.Router
module Speaker = Bgp_speaker.Speaker
module Subscriber = Bgp_speaker.Subscriber
module Workload = Bgp_speaker.Workload
module Rib_manager = Bgp_rib.Rib_manager
module Loc_rib = Bgp_rib.Loc_rib
module Prefix = Bgp_addr.Prefix
module Arch = Bgp_router.Arch
module H = Bgpmark.Harness
module Scenario = Bgpmark.Scenario
module Faults = Bgp_faults.Faults
module Metrics = Bgp_stats.Metrics
module Msg = Bgp_wire.Msg
module Fsm = Bgp_fsm.Fsm

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int

let loc_size router =
  Loc_rib.size (Rib_manager.loc_rib (Router.rib router))

let speaker_attrs ?(path_len = 3) () =
  Workload.attrs ~speaker_asn:(asn 65001) ~next_hop:(ip "192.0.2.1") ~path_len
    ()

(* One router, one speaker over a simulated channel; returns the pieces
   the prefix-limit tests poke at. *)
let limit_rig ?max_prefixes ?mrai ?metrics () =
  let engine = Engine.create () in
  let clock = Engine.clock engine in
  let router =
    Router.create ?mrai ?metrics clock Arch.xeon ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let ch = Channel.create engine () in
  let peer =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~addr:(ip "192.0.2.1")
  in
  Router.attach_peer ?max_prefixes router ~peer
    ~link:(Channel.endpoint ch Channel.B);
  let s =
    Speaker.create clock ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~link:(Channel.endpoint ch Channel.A)
  in
  Speaker.start s;
  Engine.run ~until:1.0 engine;
  (engine, router, peer, s, ch)

(* ------------------------------------------------------------------ *)
(* Bugfix 1: prefix limit counts genuinely-new prefixes only           *)
(* ------------------------------------------------------------------ *)

(* Re-announcing the full table at the limit — the churn steady state
   (BNG keepalive resync) — must not trip the limit.  The old check
   added the raw NLRI length to the adj-in size, so this CEASEd. *)
let test_limit_survives_reannounce () =
  let engine, router, peer, s, _ = limit_rig ~max_prefixes:100 () in
  let table = Bgp_addr.Prefix_gen.table ~seed:2 ~n:100 () in
  let attrs = speaker_attrs () in
  ignore (Speaker.announce s ~packing:50 ~attrs table);
  Engine.run ~until:30.0 engine;
  Alcotest.(check int) "table at the limit" 100 (loc_size router);
  (* Full-table resync at the limit. *)
  ignore (Speaker.announce s ~packing:50 ~attrs table);
  Engine.run ~until:60.0 engine;
  Alcotest.(check string) "still Established after resync" "Established"
    (Fsm.state_name (Router.session_state router peer));
  Alcotest.(check int) "table unchanged" 100 (loc_size router);
  (* Duplicates inside one NLRI add nothing either. *)
  ignore
    (Speaker.announce s ~packing:50 ~attrs
       [| table.(0); table.(0); table.(1); table.(1) |]);
  (* A withdraw+announce swap in churn order: down one session, bring
     up a new one — net zero, also fine at the limit. *)
  ignore (Speaker.withdraw s ~packing:50 [| table.(99) |]);
  let extra = Prefix.of_string_exn "100.64.255.1/32" in
  ignore (Speaker.announce s ~packing:50 ~attrs [| extra |]);
  Engine.run ~until:90.0 engine;
  Alcotest.(check string) "still Established after swap" "Established"
    (Fsm.state_name (Router.session_state router peer));
  Alcotest.(check int) "table back at the limit" 100 (loc_size router)

(* The limit must still fire — with the exact RFC 4271 CEASE — on the
   first genuinely-new prefix past it.  The NOTIFICATION is observed at
   the router's endpoint: teardown races the close, so speaker-side
   receipt is not guaranteed. *)
let test_limit_exact_cease () =
  let metrics = Metrics.create () in
  let engine, router, peer, s, ch = limit_rig ~max_prefixes:100 ~metrics () in
  let faults =
    Faults.create ~clock:(Engine.clock engine) ~metrics ()
  in
  Faults.observe_notifications faults (Channel.endpoint ch Channel.B);
  let table = Bgp_addr.Prefix_gen.table ~seed:2 ~n:101 () in
  let attrs = speaker_attrs () in
  ignore (Speaker.announce s ~packing:50 ~attrs (Array.sub table 0 100));
  Engine.run ~until:30.0 engine;
  Alcotest.(check string) "at the limit: still up" "Established"
    (Fsm.state_name (Router.session_state router peer));
  Alcotest.(check bool) "no NOTIFICATION yet" true
    (Faults.notifications_seen faults = []);
  (* Limit + 1: one new prefix over the line. *)
  ignore (Speaker.announce s ~packing:50 ~attrs [| table.(100) |]);
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "session torn down" true
    (Router.session_state router peer <> Fsm.Established);
  Alcotest.(check int) "routes flushed" 0 (loc_size router);
  (match Faults.notifications_seen faults with
  | [ e ] ->
    Alcotest.(check (pair int int)) "exactly one CEASE (code 6)" (6, 0)
      (Msg.error_code e)
  | l ->
    Alcotest.failf "expected exactly one NOTIFICATION, saw %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Bugfix 2: MRAI pending/armed state dies with the session            *)
(* ------------------------------------------------------------------ *)

(* Flap-then-reconnect: advertisements buffered behind an armed MRAI
   timer when the session drops must NOT be flushed into the reborn
   session.  Pre-fix, the stale timer survived [on_down] and delivered
   a withdrawn route's announcement to the reconnected peer. *)
let test_mrai_flap_then_reconnect () =
  let engine = Engine.create () in
  let clock = Engine.clock engine in
  let router =
    (* MRAI long enough that the flap happens while P2 is buffered. *)
    Router.create ~mrai:5.0 clock Arch.xeon ~local_asn:(asn 65000)
      ~router_id:(ip "10.255.0.1")
  in
  let ch1 = Channel.create engine () in
  let ch2 = Channel.create engine () in
  let peer1 =
    Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~addr:(ip "192.0.2.1")
  in
  let peer2 =
    Bgp_route.Peer.make ~id:1 ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
      ~addr:(ip "192.0.2.2")
  in
  Router.attach_peer router ~peer:peer1 ~link:(Channel.endpoint ch1 Channel.B);
  Router.attach_peer ~restart_delay:0.05 router ~peer:peer2
    ~link:(Channel.endpoint ch2 Channel.B);
  let s1 =
    Speaker.create clock ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~link:(Channel.endpoint ch1 Channel.A)
  in
  let s2 =
    Speaker.create clock ~asn:(asn 65002) ~router_id:(ip "192.0.2.2")
      ~link:(Channel.endpoint ch2 Channel.A)
  in
  Speaker.start s1;
  Speaker.start s2;
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "both established" true
    (Speaker.established s1 && Speaker.established s2);
  let p1 = Prefix.of_string_exn "100.64.0.1/32" in
  let p2 = Prefix.of_string_exn "100.64.0.2/32" in
  let attrs = speaker_attrs () in
  (* P1 flushes to s2 immediately and arms the 5s MRAI timer. *)
  ignore (Speaker.announce s1 ~packing:1 ~attrs [| p1 |]);
  Engine.run ~until:1.2 engine;
  Alcotest.(check int) "P1 delivered" 1
    (Hashtbl.length (Speaker.received_prefix_set s2));
  (* P2 lands in the armed timer's pending buffer... *)
  ignore (Speaker.announce s1 ~packing:1 ~attrs [| p2 |]);
  Engine.run ~until:1.5 engine;
  Alcotest.(check int) "P2 held back by MRAI" 1
    (Hashtbl.length (Speaker.received_prefix_set s2));
  (* ...then s2's session drops with P2 still buffered. *)
  (Channel.endpoint ch2 Channel.A).Bgp_engine.Link.close ();
  Engine.run ~until:2.0 engine;
  Alcotest.(check bool) "s2 down" true (Speaker.state s2 = Fsm.Idle);
  (* While s2 is down, s1 withdraws P2: the Loc-RIB is {P1} and the
     buffered P2 announcement is stale. *)
  ignore (Speaker.withdraw s1 ~packing:1 [| p2 |]);
  Engine.run ~until:2.5 engine;
  Alcotest.(check int) "Loc-RIB holds P1 only" 1 (loc_size router);
  (* Reconnect: the full-table export ships exactly {P1}. *)
  Hashtbl.reset (Speaker.received_prefix_set s2);
  Speaker.start s2;
  Engine.run ~until:3.5 engine;
  Alcotest.(check bool) "s2 re-established" true (Speaker.established s2);
  (* Run well past the old timer's 5s firing point: nothing stale may
     arrive.  Pre-fix, the surviving timer flushed the buffered P2
     announcement into the new session here. *)
  Engine.run ~until:12.0 engine;
  let received = Speaker.received_prefix_set s2 in
  Alcotest.(check int) "only P1 advertised after reconnect" 1
    (Hashtbl.length received);
  Alcotest.(check bool) "P1 present" true (Hashtbl.mem received p1);
  Alcotest.(check bool) "stale P2 never delivered" false
    (Hashtbl.mem received p2)

(* ------------------------------------------------------------------ *)
(* Property: the projection is exactly the post-update adj-in size     *)
(* ------------------------------------------------------------------ *)

let prop_peer =
  Bgp_route.Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
    ~addr:(ip "192.0.2.1")

let pool = Bgp_addr.Prefix_gen.table ~seed:7 ~n:24 ()

(* A synthetic UPDATE: indices into the pool, duplicates and
   announce/withdraw overlap allowed — exactly the shapes the old
   NLRI-length count got wrong. *)
let gen_update =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 8) (int_range 0 23))
      (list_size (int_range 0 8) (int_range 0 23)))

let prop_projection_matches_applied =
  QCheck2.Test.make
    ~name:"projected_adj_in_size = adj-in size after applying the update"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 20) gen_update)
    (fun updates ->
      let rib =
        Rib_manager.create ~local_asn:(asn 65000)
          ~router_id:(ip "10.255.0.1") ()
      in
      Rib_manager.add_peer rib prop_peer;
      let attrs = speaker_attrs () in
      let interned = Bgp_route.Attrs.Interned.intern attrs in
      List.for_all
        (fun (ann_idx, wd_idx) ->
          let announced = List.map (fun i -> pool.(i)) ann_idx in
          let withdrawn = List.map (fun i -> pool.(i)) wd_idx in
          let projected =
            Rib_manager.projected_adj_in_size rib prop_peer ~announced
              ~withdrawn
          in
          (* Apply in RFC 4271 order: withdrawals first, then NLRI (so
             a prefix in both ends up announced). *)
          List.iter
            (fun p ->
              if not (List.exists (Prefix.equal p) announced) then
                ignore (Rib_manager.withdraw rib ~from:prop_peer p))
            withdrawn;
          List.iter
            (fun p ->
              ignore (Rib_manager.announce_interned rib ~from:prop_peer p interned))
            announced;
          projected = Rib_manager.adj_in_size rib prop_peer)
        updates)

(* The issue's weaker-but-direct statement: any announce / withdraw /
   re-announce sequence through the router never trips a limit at
   least as large as the live adj-in ever gets. *)
let prop_limit_never_trips_at_live_size =
  QCheck2.Test.make
    ~name:"sequences never CEASE a limit >= peak live adj-in size" ~count:30
    QCheck2.Gen.(list_size (int_range 1 12) gen_update)
    (fun updates ->
      (* Peak distinct-prefix count an honest replay can reach. *)
      let live = Hashtbl.create 32 in
      let peak = ref 0 in
      List.iter
        (fun (ann_idx, wd_idx) ->
          List.iter
            (fun i ->
              if not (List.mem i ann_idx) then Hashtbl.remove live i)
            wd_idx;
          List.iter (fun i -> Hashtbl.replace live i ()) ann_idx;
          peak := max !peak (Hashtbl.length live))
        updates;
      let limit = max 1 !peak in
      let engine, router, peer, s, _ = limit_rig ~max_prefixes:limit () in
      let attrs = speaker_attrs () in
      let t = ref 1.0 in
      List.iter
        (fun (ann_idx, wd_idx) ->
          let arr l = Array.of_list (List.map (fun i -> pool.(i)) l) in
          if wd_idx <> [] then
            ignore (Speaker.withdraw s ~packing:50 (arr wd_idx));
          if ann_idx <> [] then
            ignore (Speaker.announce s ~packing:50 ~attrs (arr ann_idx));
          t := !t +. 5.0;
          Engine.run ~until:!t engine)
        updates;
      Router.session_state router peer = Fsm.Established)

(* ------------------------------------------------------------------ *)
(* The subscriber model                                                *)
(* ------------------------------------------------------------------ *)

let test_subscriber_plan_consistent () =
  let cfg =
    { Subscriber.default with
      Subscriber.subscribers = 200; churn_rate = 400.0; churn_duration = 1.5 }
  in
  let sub = Subscriber.create cfg in
  Alcotest.(check int) "event count" 600 (Subscriber.n_events sub);
  (* Kinds must be state-consistent, and folding the plan must land on
     final_up exactly. *)
  let up = Array.make 200 true in
  let last_at = ref 0.0 in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "events in time order" true
        (ev.Subscriber.ev_at >= !last_at);
      last_at := ev.Subscriber.ev_at;
      match ev.Subscriber.ev_kind with
      | Subscriber.Up ->
        Alcotest.(check bool) "Up only for a down session" false
          up.(ev.Subscriber.ev_idx);
        up.(ev.Subscriber.ev_idx) <- true
      | Subscriber.Down ->
        Alcotest.(check bool) "Down only for an up session" true
          up.(ev.Subscriber.ev_idx);
        up.(ev.Subscriber.ev_idx) <- false
      | Subscriber.Resync ->
        Alcotest.(check bool) "Resync only for an up session" true
          up.(ev.Subscriber.ev_idx))
    (Subscriber.plan sub);
  Alcotest.(check bool) "fold matches final_up" true
    (up = Subscriber.final_up sub);
  Alcotest.(check int) "up_count matches"
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 up)
    (Subscriber.up_count sub);
  (* Same config -> same plan (determinism across sim/live legs). *)
  let sub' = Subscriber.create cfg in
  Alcotest.(check bool) "plan deterministic" true
    (Subscriber.plan sub = Subscriber.plan sub')

let test_subscriber_pool_guard () =
  Alcotest.check_raises "pool overflow rejected"
    (Invalid_argument
       "Subscriber.create: 4194305 subscribers exceed the 100.64.0.0/10 pool \
        (4194304)") (fun () ->
      ignore
        (Subscriber.create
           { Subscriber.default with Subscriber.subscribers = 4_194_305 }))

(* ------------------------------------------------------------------ *)
(* Scenario 16 end to end (sim)                                        *)
(* ------------------------------------------------------------------ *)

let churn_config =
  { H.default_config with
    H.churn =
      Some
        { Subscriber.subscribers = 400; batch = 100; batch_interval = 0.02;
          churn_rate = 200.0; churn_duration = 0.5; seed = 42 } }

let test_scenario16_sim () =
  let r = H.run ~config:churn_config Arch.xeon (Scenario.of_id_exn 16) in
  (match r.H.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario 16 failed verification: %s" e);
  let c = Option.get r.H.churn in
  Alcotest.(check int) "all subscribers" 400 c.H.cr_subscribers;
  Alcotest.(check int) "all events" 100 c.H.cr_churn_events;
  Alcotest.(check bool) "injection tps positive" true
    (c.H.cr_injection_tps > 0.0);
  Alcotest.(check bool) "churn tps positive" true (c.H.cr_churn_tps > 0.0);
  Alcotest.(check int) "sweep timed every withdrawal" c.H.cr_sessions_up_end
    c.H.cr_sweep_count;
  Alcotest.(check bool) "failover took time" true (c.H.cr_failover_s > 0.0);
  Alcotest.(check int) "FIB empty after failover" 0 r.H.fib_size_end;
  (* The registry dump (the Prometheus stand-in) rendered non-trivially. *)
  (match c.H.cr_metrics with
  | Bgp_stats.Json.Obj entries ->
    Alcotest.(check bool) "metrics dump non-empty" true (entries <> []);
    Alcotest.(check bool) "sweep histogram exported" true
      (List.mem_assoc "churn.sweep_latency" entries)
  | _ -> Alcotest.fail "metrics dump is not an object")

let test_scenario16_deterministic () =
  let r1 = H.run ~config:churn_config Arch.xeon (Scenario.of_id_exn 16) in
  let r2 = H.run ~config:churn_config Arch.xeon (Scenario.of_id_exn 16) in
  Alcotest.(check string) "same post-churn fingerprint" r1.H.locrib_fp
    r2.H.locrib_fp;
  Alcotest.(check bool) "fingerprint non-trivial" true
    (r1.H.locrib_fp <> "")

(* A batch of 1200 /32s needs a ~6 KB UPDATE: the speaker must split
   it to fit, where scenario 16 used to die in Codec.encode. *)
let test_scenario16_oversize_batch () =
  let sub_cfg =
    { Subscriber.default with
      Subscriber.subscribers = 2000; batch = 1200; churn_duration = 0.2 }
  in
  let r =
    H.run ~config:{ H.default_config with H.churn = Some sub_cfg } Arch.xeon
      (Scenario.of_id_exn 16)
  in
  (match r.H.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario 16 failed verification: %s" e);
  Alcotest.(check int) "all subscribers" 2000
    (Option.get r.H.churn).H.cr_subscribers;
  let module Testbed = Bgpmark.Testbed in
  Testbed.with_rig Testbed.Sim ~timeout:600.0 ~speakers:1 Arch.xeon (fun tb ->
      let s1 = tb.Testbed.sides.(0) in
      Testbed.establish tb [ s1 ];
      let sizes = ref [] in
      Bgp_engine.Link.tap s1.Testbed.sp_end (fun wire ->
          sizes := String.length wire :: !sizes;
          Bgp_engine.Link.Pass);
      List.iter
        (fun (_, batch) ->
          ignore
            (Speaker.announce s1.Testbed.speaker ~packing:1200
               ~attrs:(Testbed.attrs s1 ~path_len:1) batch))
        (Subscriber.batches (Subscriber.create sub_cfg));
      Testbed.wait tb ~what:"router learns every /32"
        (Testbed.router_done tb 2000);
      Alcotest.(check bool) "several UPDATEs" true (List.length !sizes >= 3);
      List.iter
        (fun n -> if n > Msg.max_len then Alcotest.failf "a %d-byte message" n)
        !sizes)

let qtests tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "churn"
    [ ( "prefix-limit",
        Alcotest.test_case "resync at the limit survives" `Quick
          test_limit_survives_reannounce
        :: Alcotest.test_case "exact CEASE at limit+1" `Quick
             test_limit_exact_cease
        :: qtests
             [ prop_projection_matches_applied;
               prop_limit_never_trips_at_live_size ] );
      ( "mrai",
        [ Alcotest.test_case "flap-then-reconnect drops buffered state"
            `Quick test_mrai_flap_then_reconnect ] );
      ( "subscriber-model",
        [ Alcotest.test_case "plan consistent + deterministic" `Quick
            test_subscriber_plan_consistent;
          Alcotest.test_case "pool guard" `Quick test_subscriber_pool_guard ] );
      ( "scenario-16",
        [ Alcotest.test_case "sim run verifies" `Quick test_scenario16_sim;
          Alcotest.test_case "deterministic" `Quick
            test_scenario16_deterministic;
          Alcotest.test_case "oversize batch splits" `Quick
            test_scenario16_oversize_batch ] ) ]
