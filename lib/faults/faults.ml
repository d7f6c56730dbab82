module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Rng = Bgp_sim.Rng
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Metrics = Bgp_stats.Metrics

type t = {
  clock : Clock.t;
  rng : Rng.t;
  c_injected : Metrics.counter;
  c_malformed_dropped : Metrics.counter;
  c_session_restarts : Metrics.counter;
  h_reconverge : Metrics.histogram;
  mutable armed : int;                       (* one-shot corruptions pending *)
  mutable expected_rev : Msg.error list;     (* all predictions, reversed *)
  mutable expect_queue : Msg.error list;     (* predictions not yet answered *)
  mutable seen_rev : Msg.error list;         (* observed NOTIFICATIONs, reversed *)
  trace : (Bgp_trace.Tracer.t * Bgp_trace.Tracer.track) option;
}

let injected_name = "faults.injected"
let malformed_dropped_name = "faults.malformed_dropped"
let session_restarts_name = "faults.session_restarts"
let reconverge_name = "faults.reconverge_seconds"

let create ?tracer ?(trace_process = "bgpmark") ~clock ~metrics () =
  { clock; rng = Rng.create 0;
    c_injected = Metrics.counter metrics injected_name;
    c_malformed_dropped = Metrics.counter metrics malformed_dropped_name;
    c_session_restarts = Metrics.counter metrics session_restarts_name;
    h_reconverge = Metrics.histogram metrics reconverge_name;
    armed = 0; expected_rev = []; expect_queue = []; seen_rev = [];
    trace =
      Option.map
        (fun tr ->
          (tr, Bgp_trace.Tracer.track tr ~process:trace_process ~thread:"faults" ()))
        tracer }

let trace_fate t ~fate ~detail =
  match t.trace with
  | Some (tr, tk) ->
    Bgp_trace.Tracer.fault tr tk ~ts:(Clock.now t.clock) ~fate ~detail
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The corruption oracle                                               *)
(* ------------------------------------------------------------------ *)

(* The router's framer raises either at the header layer
   (required_length) or, once the full declared length is buffered, at
   the body layer (decode_at).  Predicting which — on the exact mutant
   byte image — is what lets the adversarial scenarios assert the
   precise NOTIFICATION code/subcode the router must answer with. *)
let predict wire =
  let avail = String.length wire in
  match Codec.required_length wire ~pos:0 ~avail with
  | Error e -> Some e
  | Ok None -> None (* shorter than a header: the framer would stall *)
  | Ok (Some need) ->
    if need > avail then None (* declared length overruns: stalls *)
    else (
      match Codec.decode_at wire ~pos:0 with
      | Error e -> Some e
      | Ok _ -> None)

let flip_byte rng wire =
  let b = Bytes.of_string wire in
  let pos = Rng.int rng (Bytes.length b) in
  let delta = 1 + Rng.int rng 255 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor delta));
  Bytes.to_string b

(* Cut the tail and rewrite the header length to match, so the mutant
   still frames as one complete (but internally truncated) message —
   truncation without the length fixup would merely stall the framer
   waiting for bytes that never come. *)
let truncate_fixup rng wire =
  let n = String.length wire in
  if n <= Msg.header_len then None
  else begin
    let cut = 1 + Rng.int rng (n - Msg.header_len) in
    let total = n - cut in
    let b = Bytes.sub (Bytes.unsafe_of_string wire) 0 total in
    Bytes.set b 16 (Char.chr ((total lsr 8) land 0xFF));
    Bytes.set b 17 (Char.chr (total land 0xFF));
    Some (Bytes.unsafe_to_string b)
  end

let corrupt t wire =
  let rec go tries =
    if tries = 0 then None
    else
      let cand =
        if Rng.bool t.rng then
          match truncate_fixup t.rng wire with
          | Some c -> c
          | None -> flip_byte t.rng wire
        else flip_byte t.rng wire
      in
      match predict cand with
      | Some e -> Some (cand, e)
      | None -> go (tries - 1)
  in
  go 256

(* ------------------------------------------------------------------ *)
(* Taps                                                                *)
(* ------------------------------------------------------------------ *)

let is_update wire =
  String.length wire > 18 && Char.code wire.[18] = 2

let apply_faults t wire =
  if t.armed = 0 || not (is_update wire) then Link.Pass
  else begin
    t.armed <- t.armed - 1;
    match corrupt t wire with
    | Some (mutant, err) ->
      t.expected_rev <- err :: t.expected_rev;
      t.expect_queue <- t.expect_queue @ [ err ];
      Metrics.incr t.c_injected;
      let code, sub = Msg.error_code err in
      trace_fate t ~fate:"corrupt-armed"
        ~detail:(Printf.sprintf "expect NOTIFICATION %d/%d" code sub);
      Link.Deliver mutant
    | None -> Link.Pass
  end

let tap_adversarial t (link : Link.t) = Link.tap link (apply_faults t)

let same_code e e' = Msg.error_code e = Msg.error_code e'

let note_notification t e =
  t.seen_rev <- e :: t.seen_rev;
  let code, sub = Msg.error_code e in
  trace_fate t ~fate:"notification"
    ~detail:(Printf.sprintf "%d/%d" code sub);
  match t.expect_queue with
  | expected :: rest when same_code expected e ->
    t.expect_queue <- rest;
    Metrics.incr t.c_malformed_dropped
  | _ -> ()

let observe_notifications t (link : Link.t) =
  Link.tap link (fun wire ->
      (match Codec.decode wire with
      | Ok (Msg.Notification e) -> note_notification t e
      | _ -> ());
      Link.Pass)

(* ------------------------------------------------------------------ *)
(* Armed faults and bookkeeping                                        *)
(* ------------------------------------------------------------------ *)

let arm_corrupt_next t = t.armed <- t.armed + 1
let expected_errors t = List.rev t.expected_rev
let notifications_seen t = List.rev t.seen_rev
let all_answered t = t.armed = 0 && t.expect_queue = []

let note_session_fault t =
  Metrics.incr t.c_injected;
  trace_fate t ~fate:"session-fault" ~detail:""

let note_session_restart t =
  Metrics.incr t.c_session_restarts;
  trace_fate t ~fate:"session-restart" ~detail:""
let observe_reconvergence t d = Metrics.observe t.h_reconverge d

let injected_in m = Metrics.counter_value m injected_name
let malformed_dropped_in m = Metrics.counter_value m malformed_dropped_name
let session_restarts_in m = Metrics.counter_value m session_restarts_name
let reconvergence_in m = Metrics.histogram_summary m reconverge_name
