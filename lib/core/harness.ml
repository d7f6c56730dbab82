module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Trace = Bgp_sim.Trace
module Loc_rib = Bgp_rib.Loc_rib
module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Speaker = Bgp_speaker.Speaker
module Table_io = Bgp_speaker.Table_io
module Peer = Bgp_route.Peer
module I = Bgp_route.Attrs.Interned
module Fib = Bgp_fib.Fib
module Fsm = Bgp_fsm.Fsm
module Msg = Bgp_wire.Msg
module Faults = Bgp_faults.Faults
module Metrics = Bgp_stats.Metrics
module Damping = Bgp_rib.Damping
module Mrt = Bgp_mrt.Mrt
module Replay = Bgp_mrt.Replay
module Mrt_gen = Bgp_speaker.Mrt_gen
module Subscriber = Bgp_speaker.Subscriber

type mode = Testbed.mode = Sim | Live

let mode_name = function Sim -> "sim" | Live -> "live"

type config = {
  mode : mode;
      (* Sim: discrete-event engine, virtual time, deterministic.
         Live: loopback TCP sockets on a select loop, wall-clock time.
         Same scenarios, same verification, same Loc-RIB fingerprint. *)
  table_size : int;
  large_packing : int;
  cross_traffic : float;
  seed : int;
  trace_interval : float option;
  varied_paths : bool;
  mrai : float option;
  timeout : float;
  fault_rounds : int;
  table_file : string option;
      (* Load the Phase-1 table from a file (bgpmark text or MRT dump,
         auto-detected) instead of synthesizing; overrides table_size. *)
  damping : Bgp_rib.Damping.config option;
      (* RFC 2439 damping parameters for the router under test.  None
         (the default) leaves the update path untouched; scenario 14
         forces [Damping.test_config] when unset. *)
  replay_speedup : float option;
      (* Scenario 13 pacing: None replays the update trace unpaced
         (throughput mode); Some x honors recorded inter-arrival times
         divided by x. *)
  replay_events : int option;
      (* Scenario 13 synthesized-trace length; None = the generator's
         default (n/5, at least 20). *)
  churn : Subscriber.config option;
      (* Scenario 16 workload shape.  None derives the default
         subscriber model from [table_size] and [seed]; an explicit
         config overrides [table_size] with its subscriber count. *)
  tracer : Bgp_trace.Tracer.t option;
}

let default_config =
  { mode = Sim; table_size = 10_000; large_packing = 500; cross_traffic = 0.0;
    seed = 42; trace_interval = None; varied_paths = false; mrai = None;
    timeout = 500_000.0; fault_rounds = 5; table_file = None; damping = None;
    replay_speedup = None; replay_events = None; churn = None; tracer = None }

(* AS-path lengths: speaker 1's table, and speaker 2's re-announcements
   that beat it (7/8); [losing_path_len] gives the ones that lose (5/6). *)
let setup_path_len = 3
let shorter_path_len = 1

(* One hop longer than the longest Phase-1 path, and never shorter than
   6 hops for the uniform table or 8 for varied and file tables. *)
let losing_path_len ~varied_paths = function
  | Some entries ->
    List.fold_left
      (fun acc e -> max acc (1 + Bgp_route.As_path.length e.Table_io.e_path))
      8 entries
  | None -> if varied_paths then 8 else 6

type fault_report = {
  fr_expected : (int * int) list;
  fr_answered : (int * int) list;
}

type churn_report = {
  cr_injection : Testbed.phase;  (* Phase A: rate-limited batch injection *)
  cr_churn : Testbed.phase;  (* Phase B: steady-state session churn *)
  cr_sessions_up_end : int;  (* oracle: sessions up when failover hits *)
  cr_failover_s : float;  (* Phase C: peer loss -> sweep drained at s2 *)
}

type result = {
  arch_name : string;
  scenario : Scenario.t;
  used : config;
  tps : float;
  measured_prefixes : int;
  measure_seconds : float;
  setup_seconds : float;
  trace : Trace.sample list;
  fib_size_end : int;
  stage_stats : Bgp_pipeline.Pipeline.stage_stat list;
  msgs_rx : int;
  msgs_tx : int;
  fwd_ratio_min : float;
  metrics : Metrics.t;  (* the measured phase's frozen registry *)
  faults : fault_report option;
  churn : churn_report option;  (* present for scenario 16 *)
  locrib_fp : string;
      (* Loc-RIB digest at run end; equal across sim and live runs of
         the same scenario/seed (the cross-validation invariant) *)
  verified : (unit, string) Stdlib.result;
}

(* ------------------------------------------------------------------ *)
(* Shared steps                                                        *)
(* ------------------------------------------------------------------ *)

let trace_process arch scenario =
  Printf.sprintf "%s/scenario-%d" arch.Arch.name scenario.Scenario.id

let rig ?max_prefixes ?restart_delay (cfg : config) arch scenario f =
  Testbed.with_rig ?mrai:cfg.mrai ?damping:cfg.damping ?tracer:cfg.tracer
    ~trace_process:(trace_process arch scenario) ?max_prefixes ?restart_delay
    ~cross_traffic:cfg.cross_traffic cfg.mode ~timeout:cfg.timeout ~speakers:2 arch f

let holds (side : Testbed.side) n =
  Hashtbl.length (Speaker.received_prefix_set side.speaker) = n

(* Phase 1: speaker 1 comes up and loads the [n]-prefix table. *)
let load_table tb ~n inject =
  Testbed.establish tb [ tb.Testbed.sides.(0) ];
  Testbed.phase tb ~what:"phase 1 table load" ~until:(Testbed.router_done tb n)
    inject

(* Phase 2: speaker 2 comes up and receives the router's table. *)
let sync_speaker2 (tb : Testbed.t) ~n =
  let s2 = tb.sides.(1) in
  Testbed.establish tb [ s2 ];
  Testbed.wait tb ~what:"phase 2 table transfer" (fun () ->
      Router.idle tb.router && holds s2 n)

(* Per-entry-attribute tables (file-loaded, varied synthetic, MRT RIB):
   an UPDATE carries one attribute set, so prefixes are grouped by
   equal attributes before packing. *)
let announce_grouped (side : Testbed.side) ~packing routes =
  Bgp_wire.Codec.group_by_attrs routes
  |> List.iter (fun (interned, prefixes) ->
         ignore
           (Speaker.announce side.speaker ~packing ~attrs:(I.value interned)
              (Array.of_list prefixes)))

let router_fingerprint router =
  Loc_rib.fingerprint (Bgp_rib.Rib_manager.loc_rib (Router.rib router))

(* The worst forwarding ratio: the one at run end, or a traced sample's. *)
let fwd_ratio_min (cfg : config) router trace =
  let now =
    if cfg.cross_traffic <= 0.0 then 1.0
    else
      Bgp_netsim.Forwarding.achieved_mbps (Router.forwarding router)
      /. cfg.cross_traffic
  in
  List.fold_left (fun acc s -> Float.min acc s.Trace.s_fwd_ratio) now trace

(* The result of a run whose measured phase was [p]; scripts add their
   scenario's report with a record update. *)
let result ?(trace = []) cfg arch scenario (tb : Testbed.t) (p : Testbed.phase)
    verified =
  let router = tb.router in
  { arch_name = arch.Arch.name; scenario; used = cfg; tps = Testbed.tps p;
    measured_prefixes = p.transactions; measure_seconds = p.seconds;
    setup_seconds = Clock.now tb.clock -. p.seconds; trace;
    fib_size_end = Fib.size (Router.fib router);
    stage_stats = p.stage_stats; msgs_rx = p.msgs_rx; msgs_tx = p.msgs_tx;
    fwd_ratio_min = fwd_ratio_min cfg router trace; metrics = p.metrics;
    faults = None; churn = None; locrib_fp = router_fingerprint router;
    verified }

let check name cond = if cond then Ok () else Error name

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* With damping on, each reuse-timer re-injection books one extra
   transaction on top of the expected ones, so the exact count is
   timing-dependent; the floor is not. *)
let check_measured (cfg : config) name ~expected measured =
  check name
    (if cfg.damping <> None then measured >= expected else measured = expected)

(* ------------------------------------------------------------------ *)
(* The paper's scenarios (1-8)                                         *)
(* ------------------------------------------------------------------ *)

let run_standard (cfg : config) arch scenario =
  (* --table FILE: the Phase-1 table comes from disk (bgpmark text or
     MRT dump, auto-detected); its size overrides [table_size]. *)
  let file_entries =
    Option.map
      (fun f ->
        match Table_io.load_auto f with
        | Ok entries -> entries
        (* [load_auto] errors already lead with the file name. *)
        | Error msg -> failwith (Printf.sprintf "Harness: %s" msg))
      cfg.table_file
  in
  let cfg =
    match file_entries with
    | Some entries -> { cfg with table_size = List.length entries }
    | None -> cfg
  in
  let n = cfg.table_size in
  let op = scenario.Scenario.operation in
  rig cfg arch scenario @@ fun tb ->
  let s1 = tb.sides.(0) and s2 = tb.sides.(1) in
  let fib = Router.fib tb.router in
  let sampler =
    Option.map
      (fun interval -> Trace.start tb.clock (Router.sched tb.router) ~interval ())
      cfg.trace_interval
  in
  let table =
    match file_entries with
    | Some entries ->
      Array.of_list (List.map (fun e -> e.Table_io.e_prefix) entries)
    | None -> Bgp_addr.Prefix_gen.table ~seed:cfg.seed ~n ()
  in
  let packing = Scenario.packing ~large:cfg.large_packing scenario in
  let measures_phase_1 = Scenario.measures_phase scenario = 1 in
  let fib_before = Fib.stats fib in
  (* Phase 1 is setup, in large packets, unless the scenario measures it. *)
  let p1 =
    let packing = if measures_phase_1 then packing else cfg.large_packing in
    load_table tb ~n (fun () ->
        let grouped entries =
          announce_grouped s1 ~packing
            (List.map
               (fun e ->
                 ( e.Table_io.e_prefix,
                   I.intern (Table_io.to_attrs ~next_hop:s1.peer.Peer.addr e) ))
               entries)
        in
        match file_entries with
        | Some entries -> grouped entries
        | None when cfg.varied_paths ->
          (* Internet-shaped workload: 2-6 hop paths, mixed origins/MEDs. *)
          grouped
            (Table_io.synthesize ~seed:cfg.seed ~n
               ~speaker_asn:s1.peer.Peer.asn ())
        | None ->
          ignore
            (Speaker.announce s1.speaker ~packing
               ~attrs:(Testbed.attrs s1 ~path_len:setup_path_len)
               table))
  in
  if Scenario.uses_speaker2 scenario then sync_speaker2 tb ~n;
  let losing = losing_path_len ~varied_paths:cfg.varied_paths file_entries in
  let fib_before, p =
    if measures_phase_1 then (fib_before, p1)
    else
      let fib_before = Fib.stats fib in
      ( fib_before,
        Testbed.phase tb ~what:"measured phase" ~until:(Testbed.router_done tb n)
          (fun () ->
            match op with
            | Scenario.Ending_withdraw ->
              ignore (Speaker.withdraw s1.speaker ~packing table)
            | Scenario.Incremental_no_fib_change ->
              ignore
                (Speaker.announce s2.speaker ~packing
                   ~attrs:(Testbed.attrs s2 ~path_len:losing) table)
            | Scenario.Incremental_fib_change ->
              ignore
                (Speaker.announce s2.speaker ~packing
                   ~attrs:(Testbed.attrs s2 ~path_len:shorter_path_len)
                   table)
            | _ -> assert false (* startup measures Phase 1 *)) )
  in
  Option.iter Trace.stop sampler;
  let trace = match sampler with Some t -> Trace.samples t | None -> [] in
  let st = Fib.stats fib in
  let verified =
    let* () = check_measured cfg "all prefixes measured" ~expected:n p.transactions in
    match op with
    | Scenario.Startup_announce ->
      let* () = check "FIB holds the table" (Fib.size fib = n) in
      check "every prefix was an Add" (st.Fib.adds - fib_before.Fib.adds = n)
    | Scenario.Ending_withdraw ->
      let* () = check "FIB emptied" (Fib.size fib = 0) in
      check "every prefix was withdrawn"
        (st.Fib.withdraws - fib_before.Fib.withdraws = n)
    | Scenario.Incremental_no_fib_change ->
      let* () = check "FIB intact" (Fib.size fib = n) in
      let* () =
        check "no FIB activity in the measured phase"
          (st.Fib.replaces = fib_before.Fib.replaces
          && st.Fib.adds = fib_before.Fib.adds
          && st.Fib.withdraws = fib_before.Fib.withdraws)
      in
      check "speaker 2 held the full table" (holds s2 n)
    | _ ->
      let* () = check "FIB intact" (Fib.size fib = n) in
      check "every prefix was replaced"
        (st.Fib.replaces - fib_before.Fib.replaces = n)
  in
  result ~trace cfg arch scenario tb p verified

(* ------------------------------------------------------------------ *)
(* Adversarial runs (scenarios 9-10, 14)                               *)
(* ------------------------------------------------------------------ *)

(* Suppression is only *guaranteed* when two consecutive withdrawal
   charges landed close enough that the decayed remnant of the first
   plus the second crosses the threshold:
   withdraw * 2^(-gap/half_life) + withdraw >= suppress, i.e.
   gap <= half_life * log2 (withdraw / (suppress - withdraw)).  Slower
   flapping legitimately escapes damping (that is the RFC working as
   specified, e.g. a big table on a slow cost model where one
   teardown-reconverge round outlasts the half-life), so only then is
   the check waived.  The 0.8 safety factor absorbs the skew between
   teardown initiation (timed here) and the router processing the peer
   loss.  [fault_times] is newest first. *)
let suppression_guaranteed (dc : Damping.config) fault_times =
  let headroom = dc.suppress_threshold -. dc.withdraw_penalty in
  headroom <= 0.0
  ||
  let bound =
    dc.half_life *. (log (dc.withdraw_penalty /. headroom) /. log 2.0)
  in
  let rec min_gap = function
    | a :: (b :: _ as rest) -> min (a -. b) (min_gap rest)
    | _ -> infinity
  in
  min_gap fault_times <= 0.8 *. bound

let run_adversarial (cfg : config) arch scenario =
  let op = scenario.Scenario.operation in
  (* Scenario 14 is the session-flap storm with damping forced on; 9-10
     pick it up only when the config asks (the --damping ablation). *)
  let cfg =
    match op, cfg.damping with
    | Scenario.Flap_damping, None -> { cfg with damping = Some Damping.test_config }
    | _ -> cfg
  in
  let rounds = cfg.fault_rounds in
  let n = cfg.table_size in
  rig cfg arch scenario ~restart_delay:0.05 @@ fun tb ->
  let s1 = tb.sides.(0) and s2 = tb.sides.(1) in
  let router = tb.router in
  let fib = Router.fib router in
  (* The fault counters share the router's registry, so the
     phase-boundary reset clears them with everything else. *)
  let faults =
    Faults.create ?tracer:cfg.tracer ~trace_process:(trace_process arch scenario)
      ~clock:tb.clock ~metrics:(Router.metrics router) ()
  in
  (* Speaker 1 is the adversarial peer: its transmissions pass through
     the fault tap, and the router's replies on the same link are
     watched for NOTIFICATIONs at send time (a teardown NOTIFICATION
     races the close, so receipt at the speaker is not guaranteed). *)
  Faults.tap_adversarial faults s1.sp_end;
  Faults.observe_notifications faults s1.rt_end;
  let table = Bgp_addr.Prefix_gen.table ~seed:cfg.seed ~n () in
  let attrs = Testbed.attrs s1 ~path_len:setup_path_len in
  let packing = Scenario.packing ~large:cfg.large_packing scenario in
  ignore
    (load_table tb ~n (fun () ->
         ignore (Speaker.announce s1.speaker ~packing:cfg.large_packing ~attrs table)));
  sync_speaker2 tb ~n;
  let fib_before = Fib.stats fib in
  (* Virtual timestamps of each fault injection, newest first: the
     damping verdict needs the inter-flap gaps. *)
  let fault_times = ref [] in
  let fault_round k =
    let fault_at = Clock.now tb.clock in
    fault_times := fault_at :: !fault_times;
    (match op with
    | Scenario.Corrupted_storm ->
      (* Corrupt the next UPDATE in flight: a small slice announcement
         whose single message is mutated into a pre-validated malformed
         image.  The router must answer with the predicted RFC 4271
         NOTIFICATION and tear the session down; the slice therefore
         contributes zero transactions. *)
      Faults.arm_corrupt_next faults;
      ignore
        (Speaker.announce s1.speaker ~packing ~attrs
           (Array.sub table 0 (min packing n)))
    | _ ->
      (* Alternate the two teardown flavors: an unsolicited TCP reset
         (close under the FSM's feet) and an orderly CEASE from the
         speaker.  With damping on, every flap charges a withdrawal
         penalty per lost route; from the second round on the
         re-announcements are suppressed and re-convergence completes
         only when the reuse timer re-injects them. *)
      Faults.note_session_fault faults;
      if k mod 2 = 1 then s1.sp_end.Link.close () else Speaker.stop s1.speaker);
    Testbed.wait tb ~what:(Printf.sprintf "speaker teardown (round %d)" k)
      (fun () -> Speaker.state s1.speaker = Fsm.Idle);
    (* The router side restarts passively after [restart_delay]; the
       speaker must not reconnect before that or its OPEN hits a dead
       socket.  Also wait for the peer-loss flush to drain: its
       withdrawals to speaker 2 ride the FIB process and would
       otherwise race (and cancel) the re-announced routes. *)
    Testbed.wait tb ~what:(Printf.sprintf "flush + session rearm (round %d)" k)
      (fun () ->
        Router.idle router && Router.session_state router s1.peer = Fsm.Active);
    Testbed.establish tb [ s1 ];
    Faults.note_session_restart faults;
    ignore (Speaker.announce s1.speaker ~packing ~attrs table);
    Testbed.wait tb ~what:(Printf.sprintf "re-convergence (round %d)" k)
      (fun () ->
        Testbed.router_done tb (k * n) () && Fib.size fib = n && holds s2 n);
    Faults.observe_reconvergence faults (Clock.now tb.clock -. fault_at)
  in
  (* Each round waits for its own re-convergence. *)
  let p =
    Testbed.phase tb (fun () ->
        for k = 1 to rounds do
          fault_round k
        done)
  in
  let st = Fib.stats fib in
  let m = p.metrics in
  let rc_count, _, _ = Faults.reconvergence_in m in
  let report =
    { fr_expected = List.map Msg.error_code (Faults.expected_errors faults);
      fr_answered = List.map Msg.error_code (Faults.notifications_seen faults) }
  in
  let verified =
    let* () =
      check_measured cfg "all prefixes measured" ~expected:(rounds * n)
        p.transactions
    in
    let* () = check "FIB restored after recovery" (Fib.size fib = n) in
    let* () =
      check "every fault flushed the table"
        (st.Fib.withdraws - fib_before.Fib.withdraws = rounds * n)
    in
    let* () =
      check "every recovery re-installed the table"
        (st.Fib.adds - fib_before.Fib.adds = rounds * n)
    in
    let* () = check "speaker 2 held the full table" (holds s2 n) in
    let* () =
      check "session restarted after every fault"
        (Faults.session_restarts_in m = rounds)
    in
    let* () =
      check "re-convergence timed for every fault" (rc_count = rounds)
    in
    let* () =
      match op with
      | Scenario.Corrupted_storm ->
        let* () =
          check "one malformed update injected per round"
            (List.length (Faults.expected_errors faults) = rounds)
        in
        let* () =
          check "router answered each malformed update with the predicted \
                 NOTIFICATION"
            (Faults.all_answered faults)
        in
        check "malformed updates counted"
          (Faults.malformed_dropped_in m = rounds)
      | _ -> check "every session fault recorded" (Faults.injected_in m = rounds)
    in
    match cfg.damping with
    | None -> Ok ()
    | Some dc ->
      let* () =
        check "damping suppressed flapping routes"
          ((not (suppression_guaranteed dc !fault_times))
          || Damping.suppressions_in m > 0)
      in
      let* () =
        check "every suppressed route was reused"
          (Damping.reuses_in m = Damping.suppressions_in m)
      in
      check "no route left suppressed" (Damping.suppressed_in m = 0)
  in
  { (result cfg arch scenario tb p verified) with faults = Some report }

(* ------------------------------------------------------------------ *)
(* MRT replay (scenario 13)                                            *)
(* ------------------------------------------------------------------ *)

(* Load a recorded (or synthesized) TABLE_DUMP_V2 RIB through Phase 1,
   then replay the dump's BGP4MP update trace through speaker 1 at
   recorded or accelerated timing and measure sustained throughput.
   The oracle folds the trace's announce/withdraw effects over the
   initial prefix set, so the final FIB and speaker 2's view are
   checked against the exact expected route set — in sim and live. *)
let run_mrt (cfg : config) arch scenario =
  rig cfg arch scenario @@ fun tb ->
  let s1 = tb.sides.(0) and s2 = tb.sides.(1) in
  let fib = Router.fib tb.router in
  let records =
    match cfg.table_file with
    | Some f ->
      (match Mrt.read_file f with
      | Ok (records, _skipped) -> records
      | Error msg -> failwith (Printf.sprintf "Harness: %s: %s" f msg))
    | None ->
      Mrt_gen.records ~seed:cfg.seed ?events:cfg.replay_events
        ~n:cfg.table_size ~speaker_asn:s1.peer.Peer.asn
        ~next_hop:s1.peer.Peer.addr ()
  in
  let routes = Mrt.routes_of_dump records in
  let events =
    (* Real traces may carry KEEPALIVEs etc.; only UPDATEs replay. *)
    List.filter
      (fun (_, m) -> match m with Msg.Update _ -> true | _ -> false)
      (Mrt.updates_of_dump records)
  in
  let n = List.length routes in
  if n = 0 then failwith "Harness: MRT dump has no IPv4-unicast RIB entries";
  let cfg = { cfg with table_size = n } in
  (* Each replayed UPDATE books one transaction per prefix it names,
     changed or not — the deterministic completion criterion. *)
  let event_prefixes =
    List.fold_left
      (fun acc (_, m) ->
        match m with
        | Msg.Update u ->
          acc + List.length u.Msg.withdrawn + List.length u.Msg.nlri
        | _ -> acc)
      0 events
  in
  let expected = Replay.expected_prefixes events (List.map fst routes) in
  let n_expected = List.length expected in
  ignore
    (load_table tb ~n (fun () ->
         announce_grouped s1 ~packing:cfg.large_packing routes));
  sync_speaker2 tb ~n;
  let pacing =
    match cfg.replay_speedup with
    | None -> Replay.Unpaced
    | Some x -> Replay.Timed x
  in
  (* The replay starts when the phase's action forces it. *)
  let rp =
    lazy
      (Replay.start ~clock:tb.clock ~pacing
         ~send:(fun m -> Speaker.send_update s1.speaker m)
         events)
  in
  let p =
    Testbed.phase tb ~what:"update-trace replay"
      ~until:(fun () ->
        Replay.finished (Lazy.force rp)
        && Testbed.router_done tb event_prefixes ()
        && holds s2 n_expected)
      (fun () -> ignore (Lazy.force rp))
  in
  let rp = Lazy.force rp in
  let verified =
    let* () =
      check "replay delivered every update"
        ((not (Replay.failed rp)) && Replay.sent rp = Replay.total rp)
    in
    let* () =
      check_measured cfg "all replayed prefixes measured"
        ~expected:event_prefixes p.transactions
    in
    let* () =
      check "FIB matches the replay oracle" (Fib.size fib = n_expected)
    in
    let s2_set = Speaker.received_prefix_set s2.speaker in
    check "speaker 2 converged to the oracle set"
      (Hashtbl.length s2_set = n_expected
      && List.for_all (fun p -> Hashtbl.mem s2_set p) expected)
  in
  result cfg arch scenario tb p verified

(* ------------------------------------------------------------------ *)
(* Subscriber-edge churn (scenario 16)                                 *)
(* ------------------------------------------------------------------ *)

(* Phase C's per-withdrawal failover latency, registered on the
   router's registry so the phase reset scopes it like the rest. *)
let sweep_latency_name = "churn.sweep_latency"
let sweep_latency_in m = Metrics.histogram_summary m sweep_latency_name

(* The BNG/WISP workload: N /32 session routes batch-injected through
   speaker 1 with [max_prefixes] set to exactly N and MRAI active, then
   a deterministic Markov churn plan (session up/down/resync), then
   failover — speaker 1's link dies and the full withdraw sweep is
   timed end-to-end as it lands at speaker 2.  Every phase is verified
   against the [Subscriber] plan oracle, which knows the expected
   up-set independently of anything the router did.

   The resync events are the traffic that used to CEASE the session
   under the old NLRI-length prefix-limit check: a re-announce at a
   full table projects to zero growth and must pass. *)
let run_churn (cfg : config) arch scenario =
  let sub_cfg =
    match cfg.churn with
    | Some c -> c
    | None ->
      { Subscriber.default with
        Subscriber.subscribers = cfg.table_size; seed = cfg.seed }
  in
  let sub = Subscriber.create sub_cfg in
  let n = sub_cfg.Subscriber.subscribers in
  (* MRAI must be live under churn; honor an explicit setting, else a
     realistic 50ms. *)
  let mrai = match cfg.mrai with Some m -> Some m | None -> Some 0.05 in
  let cfg = { cfg with table_size = n; mrai; churn = Some sub_cfg } in
  (* Prefix-limit protection sized exactly to the subscriber pool: any
     over-count in the limit check tears the session mid-churn. *)
  rig cfg arch scenario ~max_prefixes:n @@ fun tb ->
  let s1 = tb.sides.(0) and s2 = tb.sides.(1) in
  let router = tb.router in
  let fib = Router.fib router in
  let sweep_hist = Metrics.histogram (Router.metrics router) sweep_latency_name in
  let prefixes = Subscriber.prefixes sub in
  let attrs = Testbed.attrs s1 ~path_len:setup_path_len in
  let at delay f = ignore (Clock.schedule tb.clock ~delay f) in

  (* Phase A: rate-limited batch injection (measured). *)
  let inject =
    load_table tb ~n (fun () ->
        List.iter
          (fun (delay, batch) ->
            at delay (fun () ->
                ignore
                  (Speaker.announce s1.speaker ~packing:sub_cfg.Subscriber.batch
                     ~attrs batch)))
          (Subscriber.batches sub))
  in
  let fib_after_inject = Fib.size fib in
  sync_speaker2 tb ~n;

  (* Phase B: steady-state churn (measured). *)
  let n_events = Subscriber.n_events sub in
  let up_count = Subscriber.up_count sub in
  let churn =
    Testbed.phase tb ~what:"steady-state churn"
      ~until:(fun () -> Testbed.router_done tb n_events () && holds s2 up_count)
      (fun () ->
        List.iter
          (fun ev ->
            let p = [| prefixes.(ev.Subscriber.ev_idx) |] in
            at ev.Subscriber.ev_at (fun () ->
                match ev.Subscriber.ev_kind with
                | Subscriber.Up | Subscriber.Resync ->
                  ignore (Speaker.announce s1.speaker ~packing:1 ~attrs p)
                | Subscriber.Down ->
                  ignore (Speaker.withdraw s1.speaker ~packing:1 p)))
          (Subscriber.plan sub))
  in
  let fib_after_churn = Fib.size fib in
  let s1_lost_before_failover = Speaker.sessions_lost s1.speaker in
  let s2_holds_oracle_set =
    let set = Speaker.received_prefix_set s2.speaker in
    Hashtbl.length set = up_count
    && List.for_all (fun p -> Hashtbl.mem set p) (Subscriber.up_prefixes sub)
  in
  (* The crosscheck fingerprint is taken here, at peak state: after the
     failover the Loc-RIB is empty and every run would trivially agree. *)
  let locrib_fp = router_fingerprint router in

  (* Phase C: failover — peer loss, full withdraw sweep. *)
  let t_fail = Clock.now tb.clock in
  Speaker.set_update_observer s2.speaker (fun u ->
      let dt = Clock.now tb.clock -. t_fail in
      List.iter (fun _ -> Metrics.observe sweep_hist dt) u.Msg.withdrawn);
  s1.sp_end.Link.close ();
  Testbed.wait tb ~what:"failover withdraw sweep" (fun () ->
      Router.idle router && Fib.size fib = 0 && holds s2 0);
  let failover_s = Clock.now tb.clock -. t_fail in
  Speaker.set_update_observer s2.speaker ignore;

  (* The run's figures cover both measured phases; the per-stage and
     message counts are those since Phase B began, failover included. *)
  let p =
    { (Testbed.snapshot tb) with
      transactions = inject.transactions + churn.transactions;
      seconds = inject.seconds +. churn.seconds }
  in
  let report =
    { cr_injection = inject; cr_churn = churn; cr_sessions_up_end = up_count;
      cr_failover_s = failover_s }
  in
  let sweep_count, _, _ = sweep_latency_in p.metrics in
  let verified =
    let* () = check "every subscriber injected" (inject.transactions = n) in
    let* () = check "FIB held the pool after injection" (fib_after_inject = n) in
    let* () = check "every churn event measured" (churn.transactions = n_events) in
    let* () =
      check "session survived churn at the prefix limit"
        (s1_lost_before_failover = 0)
    in
    let* () =
      check "FIB matched the churn oracle" (fib_after_churn = up_count)
    in
    let* () = check "speaker 2 converged to the oracle set" s2_holds_oracle_set in
    let* () = check "failover emptied the FIB" (Fib.size fib = 0) in
    let* () = check "failover swept speaker 2 clean" (holds s2 0) in
    check "every swept withdrawal was timed" (sweep_count = up_count)
  in
  { (result cfg arch scenario tb p verified) with
    churn = Some report; locrib_fp }

let run ?(config = default_config) arch scenario =
  match scenario.Scenario.operation with
  | Scenario.Startup_announce | Scenario.Ending_withdraw
  | Scenario.Incremental_no_fib_change | Scenario.Incremental_fib_change ->
    run_standard config arch scenario
  | Scenario.Corrupted_storm | Scenario.Session_flaps | Scenario.Flap_damping ->
    run_adversarial config arch scenario
  | Scenario.Mrt_replay -> run_mrt config arch scenario
  | Scenario.Subscriber_churn -> run_churn config arch scenario

(* Each report reads its numbers at print time from where they live:
   the measured phase's frozen registry, a phase record, or the run's
   config; the report records hold only what nothing else does. *)

let pp_faults ppf r =
  if r.faults <> None then begin
    let m = r.metrics in
    let count, mean, mx = Faults.reconvergence_in m in
    Format.fprintf ppf
      "@,  faults injected %d; malformed dropped %d; session restarts %d@,  \
       re-convergence: %d events, mean %.3fs virtual, max %.3fs"
      (Faults.injected_in m) (Faults.malformed_dropped_in m)
      (Faults.session_restarts_in m) count mean mx
  end

let pp_damping ppf r =
  if r.used.damping <> None then begin
    let m = r.metrics in
    let _, mean, mx = Damping.reuse_latency_in m in
    Format.fprintf ppf
      "@,  damping: %d flaps, %d suppressions, %d reuses, %d still \
       suppressed@,  reuse latency: mean %.3fs, max %.3fs"
      (Damping.flaps_in m) (Damping.suppressions_in m) (Damping.reuses_in m)
      (Damping.suppressed_in m) mean mx
  end

let pp_churn ppf r =
  Option.iter
    (fun c ->
      let inj = c.cr_injection and ch = c.cr_churn in
      let count, mean, mx = sweep_latency_in r.metrics in
      Format.fprintf ppf
        "@,  churn: %d subscribers injected in %.2fs (%.0f tps); %d events in \
         %.2fs (%.0f tps); %d up at failover@,  failover sweep: %.3fs \
         end-to-end, %d withdrawals, latency mean %.3fs max %.3fs"
        r.used.table_size inj.Testbed.seconds (Testbed.tps inj)
        ch.Testbed.transactions ch.Testbed.seconds (Testbed.tps ch)
        c.cr_sessions_up_end c.cr_failover_s count mean mx)
    r.churn

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s / %s:@,  %.1f transactions/s (%d prefixes in %.2fs virtual)@,  FIB end size %d; verification %s%a%a%a@,  per-stage breakdown (measured phase):@,  @[<v>%a@]@]"
    r.arch_name (Scenario.describe r.scenario) r.tps r.measured_prefixes
    r.measure_seconds r.fib_size_end
    (match r.verified with Ok () -> "OK" | Error e -> "FAILED: " ^ e)
    pp_faults r pp_damping r pp_churn r
    Bgp_pipeline.Pipeline.pp_stage_stats r.stage_stats

let fault_json r (f : fault_report) =
  let module J = Bgp_stats.Json in
  let m = r.metrics in
  let count, mean, mx = Faults.reconvergence_in m in
  let codes l = J.List (List.map (fun (c, s) -> J.List [ J.Int c; J.Int s ]) l) in
  J.Obj
    [ ("injected", J.Int (Faults.injected_in m));
      ("malformed_dropped", J.Int (Faults.malformed_dropped_in m));
      ("session_restarts", J.Int (Faults.session_restarts_in m));
      ("reconverge_count", J.Int count);
      ("reconverge_mean_s", J.Float mean);
      ("reconverge_max_s", J.Float mx);
      ("expected_notifications", codes f.fr_expected);
      ("answered_notifications", codes f.fr_answered) ]

let damping_json r =
  let module J = Bgp_stats.Json in
  let m = r.metrics in
  let _, mean, mx = Damping.reuse_latency_in m in
  J.Obj
    [ ("flaps", J.Int (Damping.flaps_in m));
      ("suppressions", J.Int (Damping.suppressions_in m));
      ("reuses", J.Int (Damping.reuses_in m));
      ("suppressed_end", J.Int (Damping.suppressed_in m));
      ("reuse_latency_mean_s", J.Float mean);
      ("reuse_latency_max_s", J.Float mx) ]

let churn_json r c =
  let module J = Bgp_stats.Json in
  let inj = c.cr_injection and ch = c.cr_churn in
  let count, mean, mx = sweep_latency_in r.metrics in
  J.Obj
    [ ("subscribers", J.Int r.used.table_size);
      ("injection_s", J.Float inj.Testbed.seconds);
      ("injection_tps", J.Float (Testbed.tps inj));
      ("churn_events", J.Int ch.Testbed.transactions);
      ("churn_s", J.Float ch.Testbed.seconds);
      ("churn_tps", J.Float (Testbed.tps ch));
      ("sessions_up_end", J.Int c.cr_sessions_up_end);
      ("failover_s", J.Float c.cr_failover_s);
      ("sweep_count", J.Int count);
      ("sweep_latency_mean_s", J.Float mean);
      ("sweep_latency_max_s", J.Float mx);
      ("metrics", Metrics.to_json r.metrics) ]

(* A snapshot of the process-global attribute arena (JSON only — the
   rendered tables never include it). *)
let arena_json () =
  let module J = Bgp_stats.Json in
  let module I = Bgp_route.Attrs.Interned in
  let s = I.stats () in
  J.Obj
    [ ("interns", J.Int s.I.interns);
      ("hits", J.Int s.I.hits);
      ("hit_rate", J.Float (I.hit_rate s));
      ("live", J.Int s.I.live);
      ("saved_bytes", J.Int s.I.saved_bytes) ]

let result_json (r : result) =
  let module J = Bgp_stats.Json in
  J.Obj
    ([ ("arch", J.Str r.arch_name);
       ("scenario", J.Int r.scenario.Scenario.id);
       ("name", J.Str (Scenario.name r.scenario));
       ("tps", J.Float r.tps);
       ("transactions", J.Int r.measured_prefixes);
       ("measure_s", J.Float r.measure_seconds);
       ("setup_s", J.Float r.setup_seconds);
       ("fib_size", J.Int r.fib_size_end);
       ("msgs_rx", J.Int r.msgs_rx);
       ("msgs_tx", J.Int r.msgs_tx);
       ("fwd_ratio_min", J.Float r.fwd_ratio_min);
       ("mode", J.Str (mode_name r.used.mode));
       ("locrib_fp", J.Str r.locrib_fp) ]
    @ (match r.faults with None -> [] | Some f -> [ ("faults", fault_json r f) ])
    @ (if r.used.damping = None then [] else [ ("damping", damping_json r) ])
    @ (match r.churn with None -> [] | Some c -> [ ("churn", churn_json r c) ])
    @
    match r.verified with
    | Ok () -> [ ("verified", J.Bool true) ]
    | Error e -> [ ("verified", J.Bool false); ("error", J.Str e) ])

(* ------------------------------------------------------------------ *)
(* Sim-vs-live cross-validation                                        *)
(* ------------------------------------------------------------------ *)

type crosscheck = {
  xc_arch : string;
  xc_scenario : Scenario.t;
  xc_sim : result;
  xc_live : result;
  xc_fingerprints_match : bool;
  xc_verdicts_match : bool;
}

(* Run the same scenario/seed simulated and over loopback TCP.  Routing
   outcomes must agree exactly (Loc-RIB fingerprints equal, the same
   verification verdict); only timings may differ. *)
let cross_validate ?(config = default_config) ?(live_timeout = 120.0) arch
    scenario =
  let xc_sim = run ~config:{ config with mode = Sim } arch scenario in
  let xc_live =
    run ~config:{ config with mode = Live; timeout = live_timeout } arch
      scenario
  in
  { xc_arch = arch.Arch.name; xc_scenario = scenario; xc_sim; xc_live;
    xc_fingerprints_match = String.equal xc_sim.locrib_fp xc_live.locrib_fp;
    xc_verdicts_match =
      Result.is_ok xc_sim.verified = Result.is_ok xc_live.verified }

let crosscheck_ok xc =
  xc.xc_fingerprints_match && xc.xc_verdicts_match
  && Result.is_ok xc.xc_sim.verified

let pp_crosscheck ppf xc =
  Format.fprintf ppf
    "@[<v>%s / %s:@,  sim  %8.1f tps in %8.2fs  fp %s  verified %s@,  live \
     %8.1f tps in %8.2fs  fp %s  verified %s@,  fingerprints %s; verdicts \
     %s@]"
    xc.xc_arch
    (Scenario.describe xc.xc_scenario)
    xc.xc_sim.tps xc.xc_sim.measure_seconds
    (String.sub xc.xc_sim.locrib_fp 0 12)
    (match xc.xc_sim.verified with Ok () -> "OK" | Error e -> "FAILED: " ^ e)
    xc.xc_live.tps xc.xc_live.measure_seconds
    (String.sub xc.xc_live.locrib_fp 0 12)
    (match xc.xc_live.verified with Ok () -> "OK" | Error e -> "FAILED: " ^ e)
    (if xc.xc_fingerprints_match then "MATCH" else "MISMATCH")
    (if xc.xc_verdicts_match then "MATCH" else "MISMATCH")

let crosscheck_json xc =
  let module J = Bgp_stats.Json in
  J.Obj
    [ ("arch", J.Str xc.xc_arch);
      ("scenario", J.Int xc.xc_scenario.Scenario.id);
      ("name", J.Str (Scenario.name xc.xc_scenario));
      ("sim", result_json xc.xc_sim);
      ("live", result_json xc.xc_live);
      ("fingerprints_match", J.Bool xc.xc_fingerprints_match);
      ("verdicts_match", J.Bool xc.xc_verdicts_match);
      ("ok", J.Bool (crosscheck_ok xc)) ]
