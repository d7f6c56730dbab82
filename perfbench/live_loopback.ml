(* Workload [live-loopback]: scenario 7 (speaker 2 re-announces the
   table one prefix per UPDATE with a shorter path, so every prefix is
   an FIB Replace and a re-export) in Live mode over real loopback TCP.
   It is the only workload on [bgp_tcp].  Both directions carry one
   message per prefix, so per-message costs dominate: event-loop
   pumping, socket reads, ring writes, framing, the session,
   pipeline/sched bookkeeping and router packing. *)

module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Harness = Bgpmark.Harness
module Scenario = Bgpmark.Scenario
module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Event_loop = Bgp_tcp.Event_loop
module Tcp_link = Bgp_tcp.Tcp_link
module Speaker = Bgp_speaker.Speaker
module Workload = Bgp_speaker.Workload
module Rib = Bgp_rib.Rib_manager
module Fib = Bgp_fib.Fib
module I = Bgp_route.Attrs.Interned
module Asn = Bgp_route.Asn
module Ipv4 = Bgp_addr.Ipv4
module Peer = Bgp_route.Peer
module Codec = Bgp_wire.Codec
module S = Probe.Samples

type size = { prefixes : int }

let full = { prefixes = 100_000 }
let toy = { prefixes = 2_000 }

(* The unpaced architecture: the Xeon model with all twelve cost terms
   zero and no housekeeping, so the modelled CPU never paces the run
   and the measured phase's rate is host speed.  Paced live runs are
   bound by the modelled pacing rather than by the code, which is why
   it exists.  It is used only by this workload: it is not in
   [Arch.all] and never reaches Table III. *)
let unpaced =
  { Arch.xeon with
    Arch.name = "unpaced";
    description = "Xeon model with zero costs: host speed only";
    cost =
      { Arch.cyc_per_msg_rx = 0.0; cyc_per_msg_tx = 0.0; cyc_per_byte = 0.0;
        cyc_per_prefix_parse = 0.0; cyc_per_policy_unit = 0.0;
        cyc_per_candidate = 0.0; cyc_per_rib_change = 0.0;
        cyc_per_announcement = 0.0; cyc_per_fib_msg = 0.0;
        cyc_per_fib_delta = 0.0; cyc_per_fib_replace = 0.0;
        cyc_per_withdraw_parse = 0.0 };
    rtrmgr_period = 0.0 }

let scenario = Scenario.of_id_exn 7
let timeout = 120.0

let config ~seed size =
  { Harness.default_config with
    Harness.mode = Harness.Live; table_size = size.prefixes; seed; timeout }

(* ------------------------------------------------------------------ *)
(* Untraced: Harness.run                                               *)
(* ------------------------------------------------------------------ *)

type run = {
  tps : float;
  setup_s : float;
  ok : bool;
  fp : string;
  note : string;
}

let harness_run ~seed size =
  match Harness.run ~config:(config ~seed size) unpaced scenario with
  | r ->
    let ok = r.Harness.verified = Ok () in
    { tps = r.Harness.tps; setup_s = r.Harness.setup_seconds; ok;
      fp = r.Harness.locrib_fp;
      note =
        (match r.Harness.verified with
        | Ok () -> "verified"
        | Error e -> "verification failed: " ^ e) }
  | exception Failure e ->
    { tps = 0.0; setup_s = 0.0; ok = false; fp = ""; note = e }

let run_untraced ~seed ~seconds size =
  let t0 = Probe.now_ns () in
  let rec loop acc =
    let acc = harness_run ~seed size :: acc in
    if Probe.seconds_since t0 >= seconds then List.rev acc else loop acc
  in
  let runs = loop [] in
  let med f = Probe.median (List.map f runs) in
  let failed = List.length (List.filter (fun r -> not r.ok) runs) in
  { Probe.attempted = List.length runs * size.prefixes;
    failed = failed * size.prefixes;
    metrics =
      [ ("throughput", med (fun r -> r.tps)); ("setup_s", med (fun r -> r.setup_s));
        ("live_pfx_s", med (fun r -> r.tps)) ];
    fingerprint = (List.hd runs).fp;
    notes =
      List.map
        (fun r ->
          Printf.sprintf "live-loopback n=%d: %.0f pfx/s, setup %.3f s, %s"
            size.prefixes r.tps r.setup_s r.note)
        runs }

(* ------------------------------------------------------------------ *)
(* Traced: the same rig from public constructors, instrumented         *)
(* ------------------------------------------------------------------ *)

(* The identities [Harness] gives its rig, so the traced run reaches the
   same Loc-RIB as [Harness.run]. *)
let router_asn = Asn.of_int 65000
let router_id = Ipv4.of_string_exn "10.255.0.1"
let s1_asn = Asn.of_int 65001
let s1_id = Ipv4.of_string_exn "192.0.2.1"
let s2_asn = Asn.of_int 65002
let s2_id = Ipv4.of_string_exn "192.0.2.2"
let peer1 = Peer.make ~id:0 ~asn:s1_asn ~router_id:s1_id ~addr:s1_id
let peer2 = Peer.make ~id:1 ~asn:s2_asn ~router_id:s2_id ~addr:s2_id
let setup_path_len = 3
let shorter_path_len = 1
let setup_packing = 500

type probe = {
  spans : Probe.spans;
  mutable active : bool;  (* inside the measured phase *)
  mutable depth : int;  (* nesting of timed callbacks *)
  mutable busy_ns : int;  (* outermost callback time *)
  mutable next_id : int;
  mutable reads : int;
  mutable read_bytes : int;
  mutable router_rx_ns : int;
  mutable speaker_rx_ns : int;
  mutable router_sends : int;
  mutable announce_ns : int;  (* speaker 2 building and sending *)
  sched_cb : S.t;  (* ns per callback on the router's clock *)
  captured : Buffer.t;  (* router-bound bytes of the measured phase *)
}

(* Spans are kept for one callback in [span_every]: the per-layer
   figures come from the counters, and a span per callback would double
   the run's time. *)
let span_every = 16

type callback = Router_rx | Speaker_rx | Sched_cb

let callback_name = function
  | Router_rx -> "router.rx"
  | Speaker_rx -> "speaker.rx"
  | Sched_cb -> "sched.cb"

(* Run [f], timing it as a callback of [kind] when the measured phase
   is on. *)
let timed p kind f =
  if not p.active then f ()
  else begin
    let id = p.next_id in
    p.next_id <- id + 1;
    p.depth <- p.depth + 1;
    let t0 = Probe.now_ns () in
    f ();
    let t1 = Probe.now_ns () in
    p.depth <- p.depth - 1;
    let dt = t1 - t0 in
    if p.depth = 0 then p.busy_ns <- p.busy_ns + dt;
    (match kind with
    | Router_rx -> p.router_rx_ns <- p.router_rx_ns + dt
    | Speaker_rx -> p.speaker_rx_ns <- p.speaker_rx_ns + dt
    | Sched_cb -> S.add p.sched_cb dt);
    if id mod span_every = 0 then
      Probe.span p.spans ~name:(callback_name kind) ~id ~parent:"event_loop"
        ~start:t0 ~stop:t1
  end

(* A transport endpoint whose receiver and sends are observed. *)
let wrap_link p ~router (l : Link.t) =
  let kind = if router then Router_rx else Speaker_rx in
  { l with
    Link.send =
      (fun bytes ->
        if router && p.active then p.router_sends <- p.router_sends + 1;
        l.Link.send bytes);
    set_receiver =
      (fun f ->
        l.Link.set_receiver (fun bytes ->
            if p.active then begin
              p.reads <- p.reads + 1;
              p.read_bytes <- p.read_bytes + String.length bytes;
              if router then Buffer.add_string p.captured bytes
            end;
            timed p kind (fun () -> f bytes))) }

(* The router's clock: every callback it schedules or posts is timed. *)
let wrap_clock p base =
  Clock.make ~label:(Clock.label base)
    ~now:(fun () -> Clock.now base)
    ~schedule_at:(fun ~time f ->
      Clock.schedule_at base ~time (fun () -> timed p Sched_cb f))
    ~post:(fun f -> Clock.post base (fun () -> timed p Sched_cb f))
    ~run_window:(fun ~cond ~step -> Clock.run base ~cond ~step)

let wait_until clock ~what cond =
  let deadline = Clock.now clock +. timeout in
  let rec go step =
    if cond () then ()
    else if Clock.now clock >= deadline then
      failwith ("live-loopback: timed out waiting for " ^ what)
    else begin
      ignore (Clock.run clock ~cond ~step);
      go (Float.min 2.0 (step *. 1.5))
    end
  in
  go 0.01

(* Decode, then re-encode, the router-bound messages captured during
   the measured phase: the wire cost of exactly the messages the router
   took in, timed outside the loop. *)
let replay_wire buf =
  let n = String.length buf in
  let decode_ns = ref 0 and encode_ns = ref 0 and msgs = ref 0 in
  let rec go pos =
    if pos < n then begin
      let t0 = Probe.now_ns () in
      match Codec.decode_at buf ~pos with
      | Ok (msg, used) ->
        let t1 = Probe.now_ns () in
        ignore (Sys.opaque_identity (Codec.encode msg));
        let t2 = Probe.now_ns () in
        decode_ns := !decode_ns + (t1 - t0);
        encode_ns := !encode_ns + (t2 - t1);
        incr msgs;
        go (pos + used)
      | Error _ -> failwith "live-loopback: captured stream does not decode"
    end
  in
  go 0;
  (!msgs, !decode_ns, !encode_ns)

type traced = {
  tps : float;  (* measured phase, timed as [Harness] times it *)
  verified : bool;
  fingerprint : string;
  metrics : (string * float) list;
  trace_path : string;
}

let traced_run ~seed size =
  let n = size.prefixes in
  let p =
    { spans = Probe.spans ~process:"live-loopback"; active = false; depth = 0;
      busy_ns = 0; next_id = 0; reads = 0; read_bytes = 0; router_rx_ns = 0;
      speaker_rx_ns = 0; router_sends = 0; announce_ns = 0;
      sched_cb = S.create (); captured = Buffer.create (64 * n) }
  in
  I.clear ();
  let loop = Event_loop.create () in
  let base = Event_loop.clock loop in
  let l1 = Tcp_link.pair loop and l2 = Tcp_link.pair loop in
  let router =
    Router.create (wrap_clock p base) unpaced ~local_asn:router_asn ~router_id
  in
  Router.attach_peer router ~peer:peer1
    ~link:(wrap_link p ~router:true l1.Tcp_link.listener);
  Router.attach_peer router ~peer:peer2
    ~link:(wrap_link p ~router:true l2.Tcp_link.listener);
  let speaker asn id (l : Tcp_link.t) =
    Speaker.create base ~asn ~router_id:id
      ~link:(wrap_link p ~router:false l.Tcp_link.connector)
  in
  let s1 = speaker s1_asn s1_id l1 and s2 = speaker s2_asn s2_id l2 in
  let attrs asn id len =
    Workload.attrs ~speaker_asn:asn ~next_hop:id ~path_len:len ()
  in
  let table = Bgp_addr.Prefix_gen.table ~seed ~n () in
  let router_done () =
    (Router.counters router).Router.transactions >= n && Router.idle router
  in
  let established s () = Speaker.established s in
  Fun.protect
    ~finally:(fun () ->
      l1.Tcp_link.dispose ();
      l2.Tcp_link.dispose ();
      Event_loop.stop_watching_all loop)
    (fun () ->
      (* Phase 1: speaker 1 loads the table; Phase 2: speaker 2 syncs. *)
      Speaker.start s1;
      wait_until base ~what:"speaker 1" (established s1);
      Router.reset_counters router;
      ignore
        (Speaker.announce s1 ~packing:setup_packing
           ~attrs:(attrs s1_asn s1_id setup_path_len) table);
      wait_until base ~what:"phase 1" router_done;
      Speaker.start s2;
      wait_until base ~what:"speaker 2" (established s2);
      wait_until base ~what:"phase 2" (fun () ->
          Router.idle router
          && Hashtbl.length (Speaker.received_prefix_set s2) = n);
      (* Measured phase: speaker 2's shorter path, one prefix per UPDATE. *)
      Router.reset_counters router;
      let fib_before = Fib.stats (Router.fib router) in
      let rib_before = Rib.stats (Router.rib router) in
      let rx_before = Speaker.updates_received s1 + Speaker.updates_received s2 in
      let majors0 = (Gc.quick_stat ()).Gc.major_collections in
      p.active <- true;
      let t0 = Probe.now_ns () in
      ignore
        (Speaker.announce s2 ~packing:1
           ~attrs:(attrs s2_asn s2_id shorter_path_len) table);
      p.announce_ns <- Probe.now_ns () - t0;
      wait_until base ~what:"measured phase" router_done;
      let wall_ns = Probe.now_ns () - t0 in
      p.active <- false;
      let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
      let fib = Fib.stats (Router.fib router) in
      let rib = Rib.stats (Router.rib router) in
      let counters = Router.counters router in
      let speaker_msgs =
        Speaker.updates_received s1 + Speaker.updates_received s2 - rx_before
      in
      let verified =
        Fib.size (Router.fib router) = n
        && fib.Fib.replaces - fib_before.Fib.replaces = n
      in
      let msgs, decode_ns, encode_ns = replay_wire (Buffer.contents p.captured) in
      let arena = I.stats () in
      let share ns = float_of_int ns /. float_of_int wall_ns in
      let per_pfx x = float_of_int x /. float_of_int n in
      let tps =
        match counters.Router.first_work_at, counters.Router.last_transaction_at with
        | Some t0, Some t1 when t1 > t0 ->
          float_of_int counters.Router.transactions /. (t1 -. t0)
        | _ -> 0.0
      in
      { tps; verified;
        trace_path = Probe.write_spans p.spans "live-loopback";
        fingerprint =
          Bgp_rib.Loc_rib.fingerprint (Rib.loc_rib (Router.rib router));
        metrics =
          [ ("wire.decode_ns_per_msg", Probe.ratio decode_ns msgs);
            ("wire.encode_ns_per_msg", Probe.ratio encode_ns msgs);
            ("wire.msgs_decoded", float_of_int msgs);
            ("arena.hit_ratio", I.hit_rate arena);
            ("arena.live_sets", float_of_int arena.I.live);
            ("rib.fastpath_ratio",
             Probe.ratio
               (rib.Rib.decision_fastpath - rib_before.Rib.decision_fastpath)
               (rib.Rib.updates_processed - rib_before.Rib.updates_processed));
            ("fib.adds", float_of_int (fib.Fib.adds - fib_before.Fib.adds));
            ("fib.replaces",
             float_of_int (fib.Fib.replaces - fib_before.Fib.replaces));
            ("fib.withdraws",
             float_of_int (fib.Fib.withdraws - fib_before.Fib.withdraws));
            ("gc.major_collections", float_of_int majors);
            ("tcp.reads", float_of_int p.reads);
            ("tcp.bytes_per_read", Probe.ratio p.read_bytes p.reads);
            ("tcp.idle_share", share (wall_ns - p.busy_ns - p.announce_ns));
            ("router.ingest_ns_per_msg",
             Probe.ratio p.router_rx_ns counters.Router.msgs_rx);
            ("router.sends_per_pfx", per_pfx p.router_sends);
            ("sched.callbacks_per_pfx", per_pfx (S.count p.sched_cb));
            ("sched.callback_ns_p50", S.quantile p.sched_cb 0.5);
            ("sched.callback_ns_p99", S.quantile p.sched_cb 0.99);
            ("speaker.ingest_ns_per_msg", Probe.ratio p.speaker_rx_ns speaker_msgs);
            ("speaker.busy_share", share (p.speaker_rx_ns + p.announce_ns)) ] })

let run_traced ~seed size =
  let n = size.prefixes in
  let plain = harness_run ~seed size in
  let t = traced_run ~seed size in
  let ok = plain.ok && t.verified && plain.fp = t.fingerprint in
  { Probe.attempted = 2 * n;
    failed = (if ok then 0 else 2 * n);
    metrics =
      ("live_pfx_s", plain.tps)
      :: ("trace.overhead_pct", 100.0 *. ((plain.tps /. t.tps) -. 1.0))
      :: t.metrics;
    fingerprint = t.fingerprint;
    notes =
      [ Printf.sprintf
          "live-loopback n=%d: untraced %.0f pfx/s (%s), traced %.0f pfx/s; \
           spans in %s"
          n plain.tps plain.note t.tps t.trace_path ] }

let run ~seed ~seconds ~trace size =
  if trace then run_traced ~seed size else run_untraced ~seed ~seconds size
