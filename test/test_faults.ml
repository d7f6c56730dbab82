(* The fault-injection subsystem: corruption oracle, channel taps, and
   the adversarial harness scenarios end to end. *)

module Engine = Bgp_engine.Engine
module Clock = Bgp_engine.Clock
module Channel = Bgp_netsim.Channel
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Metrics = Bgp_stats.Metrics
module Faults = Bgp_faults.Faults
module H = Bgpmark.Harness
module Scenario = Bgpmark.Scenario
module Arch = Bgp_router.Arch

let ip = Bgp_addr.Ipv4.of_string_exn
let asn = Bgp_route.Asn.of_int

let sample_update n =
  let table = Bgp_addr.Prefix_gen.table ~seed:7 ~n () in
  let attrs =
    Bgp_speaker.Workload.attrs ~speaker_asn:(asn 65001)
      ~next_hop:(ip "192.0.2.1") ~path_len:3 ()
  in
  Msg.announcement attrs (Array.to_list table)

let injector () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  Faults.create ~clock:(Clock.of_engine engine) ~metrics ()

(* ------------------------------------------------------------------ *)
(* The corruption oracle                                               *)
(* ------------------------------------------------------------------ *)

let test_predict_clean () =
  List.iter
    (fun m ->
      match Faults.predict (Codec.encode m) with
      | None -> ()
      | Some e ->
        Alcotest.failf "clean %s predicted %s" (Msg.kind_name m)
          (Format.asprintf "%a" Msg.pp_error e))
    [ Msg.Keepalive;
      Msg.open_msg ~asn:(asn 1) ~bgp_id:(ip "1.1.1.1") ();
      sample_update 50 ]

let test_predict_stalls () =
  (* Shorter than a header, and a declared length past the buffer:
     both stall the framer rather than raise, so predict must abstain. *)
  let w = Codec.encode (sample_update 5) in
  Alcotest.(check bool) "partial header" true
    (Faults.predict (String.sub w 0 10) = None);
  Alcotest.(check bool) "body not yet buffered" true
    (Faults.predict (String.sub w 0 25) = None)

let test_corrupt_prediction_holds () =
  (* Every mutant the oracle emits must decode to exactly the predicted
     RFC 4271 code/subcode. *)
  let t = injector () in
  List.iter
    (fun m ->
      let wire = Codec.encode m in
      for _ = 1 to 50 do
        match Faults.corrupt t wire with
        | None -> Alcotest.fail "oracle found no failing mutation"
        | Some (mutant, predicted) -> (
          match Codec.decode mutant with
          | Error e ->
            Alcotest.(check (pair int int))
              "predicted code/subcode" (Msg.error_code predicted)
              (Msg.error_code e)
          | Ok _ -> Alcotest.fail "mutant decoded cleanly")
      done)
    [ sample_update 2; sample_update 100; Msg.Keepalive ]

let test_corrupt_deterministic () =
  let wire = Codec.encode (sample_update 20) in
  let run () =
    let t = injector () in
    List.init 20 (fun _ ->
        match Faults.corrupt t wire with
        | Some (m, e) -> (m, Msg.error_code e)
        | None -> ("", (0, 0)))
  in
  Alcotest.(check bool) "same mutants" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Channel taps                                                        *)
(* ------------------------------------------------------------------ *)

let tapped_channel () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let t = Faults.create ~clock:(Clock.of_engine engine) ~metrics () in
  let ch = Channel.create engine () in
  let got = ref [] in
  Channel.set_receiver ch Channel.B (fun bytes -> got := bytes :: !got);
  Channel.connect ch;
  Engine.run engine;
  (engine, t, ch, got, metrics)

let test_unarmed_tap_is_transparent () =
  let engine, t, ch, got, metrics = tapped_channel () in
  Faults.tap_adversarial t (Channel.endpoint ch Channel.A);
  let wire = Codec.encode (sample_update 10) in
  for _ = 1 to 10 do
    Channel.send ch Channel.A wire
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 10 (List.length !got);
  Alcotest.(check bool) "unmodified" true (List.for_all (( = ) wire) !got);
  Alcotest.(check int) "nothing counted" 0 (Faults.injected_in metrics)

let test_armed_corruption_observed () =
  let engine, t, ch, got, _ = tapped_channel () in
  Faults.tap_adversarial t (Channel.endpoint ch Channel.A);
  Faults.arm_corrupt_next t;
  (* Keepalives are not UPDATEs: the armed mutation must wait. *)
  Channel.send ch Channel.A (Codec.encode Msg.Keepalive);
  let wire = Codec.encode (sample_update 30) in
  Channel.send ch Channel.A wire;
  Engine.run engine;
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  (match Faults.expected_errors t with
  | [ e ] -> (
    let mutant = List.hd !got (* last received *) in
    Alcotest.(check bool) "mutant differs" true (mutant <> wire);
    match Codec.decode mutant with
    | Error e' ->
      Alcotest.(check (pair int int))
        "mutant draws the predicted error" (Msg.error_code e)
        (Msg.error_code e')
    | Ok _ -> Alcotest.fail "mutant decoded cleanly")
  | l -> Alcotest.failf "expected one prediction, got %d" (List.length l));
  Alcotest.(check bool) "still awaiting the NOTIFICATION" false
    (Faults.all_answered t)

(* ------------------------------------------------------------------ *)
(* Adversarial scenarios end to end                                    *)
(* ------------------------------------------------------------------ *)

let adv_config =
  { H.default_config with H.table_size = 120; fault_rounds = 2 }

let run_adv id =
  let r = H.run ~config:adv_config Arch.pentium3 (Scenario.of_id_exn id) in
  (match r.H.verified with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario %d verification: %s" id e);
  (r, Option.get r.H.faults)

let test_scenario9 () =
  let r, f = run_adv 9 in
  let m = r.H.metrics in
  let reconverge_count, reconverge_mean, reconverge_max =
    Faults.reconvergence_in m
  in
  Alcotest.(check int) "measured = rounds * n"
    (adv_config.H.fault_rounds * adv_config.H.table_size)
    r.H.measured_prefixes;
  Alcotest.(check int) "one corruption per round" adv_config.H.fault_rounds
    (Faults.injected_in m);
  Alcotest.(check int) "every malformed update answered"
    adv_config.H.fault_rounds (Faults.malformed_dropped_in m);
  Alcotest.(check int) "restart per round" adv_config.H.fault_rounds
    (Faults.session_restarts_in m);
  Alcotest.(check int) "re-convergence histogram" adv_config.H.fault_rounds
    reconverge_count;
  Alcotest.(check bool) "positive recovery time" true
    (reconverge_mean > 0.0 && reconverge_max >= reconverge_mean);
  (* The answered NOTIFICATION sequence must contain the expected one,
     code pair by code pair, in order. *)
  Alcotest.(check int) "prediction per round" adv_config.H.fault_rounds
    (List.length f.H.fr_expected);
  let rec subseq xs ys =
    match xs, ys with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> if x = y then subseq xs' ys' else subseq xs ys'
  in
  Alcotest.(check bool) "expected is a subsequence of answered" true
    (subseq f.H.fr_expected f.H.fr_answered)

let test_scenario10 () =
  let r, _ = run_adv 10 in
  let m = r.H.metrics in
  Alcotest.(check int) "measured = rounds * n"
    (adv_config.H.fault_rounds * adv_config.H.table_size)
    r.H.measured_prefixes;
  Alcotest.(check int) "one session fault per round" adv_config.H.fault_rounds
    (Faults.injected_in m);
  Alcotest.(check int) "restart per round" adv_config.H.fault_rounds
    (Faults.session_restarts_in m);
  Alcotest.(check int) "no malformed messages" 0
    (Faults.malformed_dropped_in m);
  Alcotest.(check int) "FIB restored" adv_config.H.table_size r.H.fib_size_end

let test_determinism_end_to_end () =
  let once () =
    let r, f = run_adv 9 in
    let _, reconverge_mean, _ = Faults.reconvergence_in r.H.metrics in
    (r.H.tps, f.H.fr_expected, reconverge_mean)
  in
  Alcotest.(check bool) "identical replays" true (once () = once ())

let test_baseline_unaffected () =
  (* The paper scenarios must not see the fault subsystem at all: a
     standard run carries no fault report and never touches a tap. *)
  let config = { H.default_config with H.table_size = 120 } in
  let r = H.run ~config Arch.pentium3 (Scenario.of_id_exn 2) in
  Alcotest.(check bool) "verified" true (r.H.verified = Ok ());
  Alcotest.(check bool) "no fault report" true (r.H.faults = None)

(* Regression: zero rounds injected no fault and still verified; a
   negative count failed verification instead of being refused; and an
   empty table ran to the virtual timeout. *)
let test_empty_runs_rejected () =
  List.iter
    (fun (id, n, rounds) ->
      let config =
        { adv_config with H.table_size = n; fault_rounds = rounds }
      in
      match H.run ~config Arch.pentium3 (Scenario.of_id_exn id) with
      | _ ->
        Alcotest.failf "scenario %d ran with %d prefixes, %d rounds" id n
          rounds
      | exception Invalid_argument _ -> ())
    [ (9, 120, 0); (10, 120, 0); (14, 120, 0); (10, 120, -1); (9, 0, 2) ]

let () =
  Alcotest.run "bgp_faults"
    [ ( "oracle",
        [ Alcotest.test_case "clean images predict no error" `Quick
            test_predict_clean;
          Alcotest.test_case "stalling images predict no error" `Quick
            test_predict_stalls;
          Alcotest.test_case "mutants draw the predicted error" `Quick
            test_corrupt_prediction_holds;
          Alcotest.test_case "deterministic per seed" `Quick
            test_corrupt_deterministic
        ] );
      ( "taps",
        [ Alcotest.test_case "unarmed tap is transparent" `Quick
            test_unarmed_tap_is_transparent;
          Alcotest.test_case "armed corruption" `Quick
            test_armed_corruption_observed
        ] );
      ( "adversarial scenarios",
        [ Alcotest.test_case "scenario 9: corrupted-update storm" `Quick
            test_scenario9;
          Alcotest.test_case "scenario 10: session flaps" `Quick test_scenario10;
          Alcotest.test_case "end-to-end determinism" `Quick
            test_determinism_end_to_end;
          Alcotest.test_case "paper scenarios untouched" `Quick
            test_baseline_unaffected;
          Alcotest.test_case "zero rounds or prefixes rejected" `Quick
            test_empty_runs_rejected
        ] )
    ]
