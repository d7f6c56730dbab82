open Bgp_netsim
module Engine = Bgp_engine.Engine
module Clock = Bgp_engine.Clock
module Pengine = Bgp_sim.Pengine
module Sched = Bgp_sim.Sched

let feq ?(eps = 1e-6) name expect got =
  if Float.abs (expect -. got) > eps then
    Alcotest.failf "%s: expected %.9f got %.9f" name expect got

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

(* Each channel case runs on both layouts: both sides on one engine,
   and the sides on two partitions of a [Pengine] (mailbox delivery;
   a cross-partition link needs a positive latency). *)
type layout = {
  name : string;
  least_latency : float;
  make :
    latency:float -> bandwidth_mbps:float ->
    Channel.t * (Channel.side -> float) * (unit -> unit);
      (* the channel, each side's clock, and "run until idle" *)
}

let one_engine =
  { name = "one engine"; least_latency = 0.0;
    make =
      (fun ~latency ~bandwidth_mbps ->
        let e = Engine.create () in
        ( Channel.create e ~latency ~bandwidth_mbps (),
          (fun _ -> Engine.now e),
          fun () -> Engine.run e )) }

let two_partitions =
  { name = "2 parts"; least_latency = 0.001;
    make =
      (fun ~latency ~bandwidth_mbps ->
        let pe = Pengine.create ~parts:2 () in
        ( Channel.create_cross pe ~part_a:0 ~part_b:1 ~latency ~bandwidth_mbps (),
          (fun side ->
            Engine.now (Pengine.part pe (if side = Channel.A then 0 else 1))),
          fun () -> Pengine.run_until pe (Pengine.now pe +. 1.0) )) }

let test_channel_connect_and_deliver l () =
  let ch, now, run = l.make ~latency:0.001 ~bandwidth_mbps:8.0 in
  let a_connected = ref false and b_connected = ref false in
  let received = ref [] in
  Channel.set_on_connected ch Channel.A (fun () -> a_connected := true);
  Channel.set_on_connected ch Channel.B (fun () -> b_connected := true);
  Channel.set_receiver ch Channel.B (fun s -> received := (s, now Channel.B) :: !received);
  Channel.connect ch;
  run ();
  Alcotest.(check bool) "a connected" true !a_connected;
  Alcotest.(check bool) "b connected" true !b_connected;
  (* 1000 bytes at 8 Mbps = 1 ms serialization + 1 ms latency *)
  let sent_at = now Channel.A in
  Channel.send ch Channel.A (String.make 1000 'x');
  run ();
  (match !received with
  | [ (s, t) ] ->
    Alcotest.(check int) "payload" 1000 (String.length s);
    feq ~eps:1e-6 "arrival" (sent_at +. 0.001 +. 0.001) t
  | _ -> Alcotest.fail "expected one delivery");
  Alcotest.(check int) "carried" 1000 (Channel.bytes_carried ch Channel.A);
  Alcotest.(check int) "nothing in flight" 0 (Channel.in_flight ch)

let test_channel_serialization_order l () =
  let latency = l.least_latency in
  let ch, now, run = l.make ~latency ~bandwidth_mbps:8.0 in
  let received = ref [] in
  Channel.set_receiver ch Channel.B (fun s -> received := (s, now Channel.B) :: !received);
  Channel.connect ch;
  run ();
  (* Two back-to-back 1000-byte messages serialize sequentially. *)
  let sent_at = now Channel.A in
  Channel.send ch Channel.A (String.make 1000 'a');
  Channel.send ch Channel.A (String.make 1000 'b');
  run ();
  match List.rev !received with
  | [ (a, t1); (b, t2) ] ->
    Alcotest.(check char) "order a" 'a' a.[0];
    Alcotest.(check char) "order b" 'b' b.[0];
    feq "first after 1ms" (sent_at +. latency +. 0.001) t1;
    feq "second after 2ms" (sent_at +. latency +. 0.002) t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_channel_close_drops l () =
  let ch, _, run = l.make ~latency:0.010 ~bandwidth_mbps:1000.0 in
  let received = ref 0 and closed = ref 0 in
  Channel.set_receiver ch Channel.B (fun _ -> incr received);
  Channel.set_on_closed ch Channel.A (fun () -> incr closed);
  Channel.set_on_closed ch Channel.B (fun () -> incr closed);
  Channel.connect ch;
  run ();
  Channel.send ch Channel.A "in-flight";
  Channel.close ch;
  run ();
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check int) "both closed" 2 !closed;
  Alcotest.(check bool) "closed state" false (Channel.is_open ch);
  Alcotest.(check int) "nothing in flight" 0 (Channel.in_flight ch);
  (* sends on a closed channel are silently dropped *)
  Channel.send ch Channel.A "late";
  run ();
  Alcotest.(check int) "still dropped" 0 !received

(* On one engine a connect or close started from side B still tells A
   first, in one event: the goldens depend on this order. *)
let test_channel_b_notifies_a_first () =
  let e = Engine.create () in
  let ch = Channel.create e () in
  let heard = ref [] in
  let hear what side () = heard := (what, side) :: !heard in
  List.iter
    (fun side ->
      Channel.set_on_connected ch side (hear "up" side);
      Channel.set_on_closed ch side (hear "down" side))
    [ Channel.A; Channel.B ];
  let b = Channel.endpoint ch Channel.B in
  let check what =
    let pending = Engine.pending e in
    Engine.run e;
    Alcotest.(check int) (what ^ ": one event") 1 pending;
    Alcotest.(check bool) (what ^ ": A, then B") true
      (List.rev !heard = [ (what, Channel.A); (what, Channel.B) ]);
    heard := []
  in
  b.Bgp_engine.Link.start_connect ();
  Alcotest.(check bool) "open at once" true (Channel.is_open ch);
  check "up";
  b.Bgp_engine.Link.close ();
  Alcotest.(check bool) "closed at once" false (Channel.is_open ch);
  check "down"

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let test_traffic_pps () =
  let t = Traffic.make ~mbps:300.0 () in
  (* 300 Mbps of 64-byte packets = 585937.5 pps *)
  feq ~eps:0.1 "pps" 585937.5 (Traffic.pps t);
  let big = Traffic.make ~packet_bytes:1500 ~mbps:300.0 () in
  feq ~eps:0.1 "pps 1500B" 25000.0 (Traffic.pps big);
  feq "none" 0.0 (Traffic.pps Traffic.none)

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)
(* ------------------------------------------------------------------ *)

let test_forwarding_dedicated () =
  let fwd =
    Forwarding.create (Forwarding.Dedicated { capacity_pps = 1.9e6 })
      ~line_rate_mbps:940.0
  in
  Forwarding.set_offered fwd (Traffic.make ~mbps:500.0 ());
  feq "under capacity" 500.0 (Forwarding.achieved_mbps fwd);
  feq "no loss" 0.0 (Forwarding.loss_ratio fwd);
  (* offered above line rate: clipped *)
  Forwarding.set_offered fwd (Traffic.make ~mbps:2000.0 ());
  Alcotest.(check bool) "clipped to line rate" true
    (Forwarding.achieved_mbps fwd <= 940.01);
  Alcotest.(check bool) "loss reported" true (Forwarding.loss_ratio fwd > 0.5);
  Alcotest.(check bool) "no control cpu" false (Forwarding.uses_control_cpu fwd)

let test_forwarding_shared_charges_sched () =
  let e = Engine.create () in
  let s = Sched.create (Clock.of_engine e) ~hz:800e6 ~pool:1.0 in
  let fwd =
    Forwarding.create
      (Forwarding.Shared
         { sched = s; interrupt_cycles_per_packet = 400.0;
           forwarding_cycles_per_packet = 450.0 })
      ~line_rate_mbps:315.0
  in
  Forwarding.set_offered fwd (Traffic.make ~mbps:300.0 ());
  Engine.run ~until:1.0 e;
  let acc = Sched.take_accounting s in
  (* 585937.5 pps x 400 cycles = 234.4M interrupt cycles/s *)
  feq ~eps:1e6 "interrupt cycles" 2.344e8 acc.Sched.acc_interrupt;
  feq ~eps:1e6 "forwarding cycles" 2.637e8 acc.Sched.acc_forwarding;
  feq "fully served" 300.0 (Forwarding.achieved_mbps fwd);
  Alcotest.(check bool) "uses control cpu" true (Forwarding.uses_control_cpu fwd)

let test_forwarding_shared_contention_loss () =
  let e = Engine.create () in
  let s = Sched.create (Clock.of_engine e) ~hz:800e6 ~pool:1.0 in
  let fwd =
    Forwarding.create
      (Forwarding.Shared
         { sched = s; interrupt_cycles_per_packet = 400.0;
           forwarding_cycles_per_packet = 450.0 })
      ~line_rate_mbps:315.0
  in
  Sched.set_forwarding_demand s ~weight:2.0 ~cycles_per_sec:0.0 ();
  Forwarding.set_offered fwd (Traffic.make ~mbps:300.0 ());
  (* Saturate the CPU with four compute-hungry user processes: the
     kernel keeps priority but not absolute priority -> small loss. *)
  let procs = List.init 4 (fun i -> Sched.add_proc s (Printf.sprintf "p%d" i)) in
  List.iter (fun p -> Sched.submit s p ~cycles:1e9 (fun () -> ())) procs;
  Engine.run ~until:0.1 e;
  let before = Forwarding.achieved_mbps fwd in
  Alcotest.(check bool) "dip under contention" true (before < 300.0);
  Alcotest.(check bool) "but most traffic still flows" true (before > 200.0);
  (* line-rate clipping happens before the CPU *)
  Forwarding.set_offered fwd (Traffic.make ~mbps:1000.0 ());
  Alcotest.(check bool) "clipped" true
    (Forwarding.achieved_mbps fwd <= 315.0)

(* ------------------------------------------------------------------ *)
(* Ip_packet: the real RFC 1812 per-packet path                        *)
(* ------------------------------------------------------------------ *)

let ip = Bgp_addr.Ipv4.of_string_exn
let pfx = Bgp_addr.Prefix.of_string_exn

let test_ip_serialize_parse () =
  let pkt =
    Ip_packet.make ~ttl:17 ~protocol:6 ~src:(ip "192.0.2.1")
      ~dst:(ip "203.0.113.9") "hello forwarding plane"
  in
  let wire = Ip_packet.serialize pkt in
  Alcotest.(check int) "length" (20 + 22) (String.length wire);
  match Ip_packet.parse wire with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok got ->
    Alcotest.(check string) "src" "192.0.2.1" (Bgp_addr.Ipv4.to_string got.Ip_packet.src);
    Alcotest.(check string) "dst" "203.0.113.9" (Bgp_addr.Ipv4.to_string got.Ip_packet.dst);
    Alcotest.(check int) "ttl" 17 got.Ip_packet.ttl;
    Alcotest.(check int) "protocol" 6 got.Ip_packet.protocol;
    Alcotest.(check string) "payload" "hello forwarding plane" got.Ip_packet.payload

let test_ip_parse_errors () =
  let pkt = Ip_packet.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") "x" in
  let wire = Ip_packet.serialize pkt in
  (* corrupt a header byte: checksum must catch it *)
  let b = Bytes.of_string wire in
  Bytes.set b 8 '\x09';
  (match Ip_packet.parse (Bytes.to_string b) with
  | Error "bad header checksum" -> ()
  | Error e -> Alcotest.failf "wrong error: %s" e
  | Ok _ -> Alcotest.fail "corruption undetected");
  (match Ip_packet.parse "short" with
  | Error "truncated header" -> ()
  | _ -> Alcotest.fail "truncation undetected");
  match Ip_packet.parse (wire ^ "extra") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "length mismatch undetected"

let test_ip_forwarding () =
  let fib = Bgp_fib.Fib.create () in
  let nh = { Bgp_fib.Fib.nh_addr = ip "192.0.2.254"; nh_port = 3 } in
  ignore (Bgp_fib.Fib.apply fib (Bgp_fib.Fib.Add (pfx "203.0.113.0/24", nh)));
  let pkt = Ip_packet.make ~ttl:2 ~src:(ip "10.0.0.1") ~dst:(ip "203.0.113.7") "p" in
  (match Ip_packet.forward fib pkt with
  | Ip_packet.Forwarded { next_hop; packet } ->
    Alcotest.(check int) "port" 3 next_hop.Bgp_fib.Fib.nh_port;
    Alcotest.(check int) "ttl decremented" 1 packet.Ip_packet.ttl
  | _ -> Alcotest.fail "should forward");
  (* TTL 1: expired *)
  let dying = Ip_packet.make ~ttl:1 ~src:(ip "10.0.0.1") ~dst:(ip "203.0.113.7") "p" in
  (match Ip_packet.forward fib dying with
  | Ip_packet.Ttl_expired -> ()
  | _ -> Alcotest.fail "ttl should expire");
  (* no route *)
  let lost = Ip_packet.make ~src:(ip "10.0.0.1") ~dst:(ip "172.16.0.1") "p" in
  match Ip_packet.forward fib lost with
  | Ip_packet.No_route -> ()
  | _ -> Alcotest.fail "should have no route"

let test_ip_forward_wire_incremental_checksum () =
  let fib = Bgp_fib.Fib.create () in
  let nh = { Bgp_fib.Fib.nh_addr = ip "192.0.2.254"; nh_port = 0 } in
  ignore (Bgp_fib.Fib.apply fib (Bgp_fib.Fib.Add (pfx "0.0.0.0/0", nh)));
  let pkt = Ip_packet.make ~ttl:33 ~src:(ip "10.0.0.1") ~dst:(ip "8.8.8.8") "data" in
  match Ip_packet.forward_wire fib (Ip_packet.serialize pkt) with
  | Error e -> Alcotest.failf "forward_wire: %s" e
  | Ok (_, out) -> (
    (* The patched packet must parse cleanly (checksum still valid)
       with TTL 32. *)
    match Ip_packet.parse out with
    | Ok got -> Alcotest.(check int) "ttl" 32 got.Ip_packet.ttl
    | Error e -> Alcotest.failf "incremental checksum broke parse: %s" e)

let prop_ip_roundtrip =
  QCheck2.Test.make ~name:"ip packet serialize/parse roundtrip" ~count:300
    QCheck2.Gen.(
      let* src = int_range 0 0xFFFF_FFFF in
      let* dst = int_range 0 0xFFFF_FFFF in
      let* ttl = int_range 0 255 in
      let* proto = int_range 0 255 in
      let* payload = string_size (int_range 0 100) in
      return (src, dst, ttl, proto, payload))
    (fun (src, dst, ttl, proto, payload) ->
      let pkt =
        Ip_packet.make ~ttl ~protocol:proto ~src:(Bgp_addr.Ipv4.of_int src)
          ~dst:(Bgp_addr.Ipv4.of_int dst) payload
      in
      match Ip_packet.parse (Ip_packet.serialize pkt) with
      | Ok got -> got = pkt
      | Error _ -> false)

let prop_incremental_checksum_agrees =
  (* RFC 1624 incremental update must agree with full recomputation for
     every TTL. *)
  QCheck2.Test.make ~name:"incremental checksum = full recomputation" ~count:300
    QCheck2.Gen.(
      let* src = int_range 0 0xFFFF_FFFF in
      let* dst = int_range 0 0xFFFF_FFFF in
      let* ttl = int_range 2 255 in
      return (src, dst, ttl))
    (fun (src, dst, ttl) ->
      let pkt =
        Ip_packet.make ~ttl ~src:(Bgp_addr.Ipv4.of_int src)
          ~dst:(Bgp_addr.Ipv4.of_int dst) ""
      in
      let wire = Ip_packet.serialize pkt in
      let old_ck = (Char.code wire.[10] lsl 8) lor Char.code wire.[11] in
      let incr = Ip_packet.incremental_ttl_decrement ~old_checksum:old_ck ~old_ttl:ttl in
      let full =
        let decremented = { pkt with Ip_packet.ttl = ttl - 1 } in
        let w = Ip_packet.serialize decremented in
        (Char.code w.[10] lsl 8) lor Char.code w.[11]
      in
      incr = full)

(* Property: deliveries preserve order and content for arbitrary
   message sizes and send times. *)
let prop_channel_fifo =
  QCheck2.Test.make ~name:"channel is ordered and lossless while open" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 2000))
    (fun sizes ->
      let e = Engine.create () in
      let ch = Channel.create e ~latency:0.001 ~bandwidth_mbps:100.0 () in
      let received = Buffer.create 1024 in
      Channel.set_receiver ch Channel.B (fun s -> Buffer.add_string received s);
      Channel.connect ch;
      Engine.run e;
      let sent = Buffer.create 1024 in
      List.iteri
        (fun i size ->
          let payload = String.make size (Char.chr (Char.code 'a' + (i mod 26))) in
          Buffer.add_string sent payload;
          ignore
            (Engine.schedule e ~delay:(float_of_int i *. 1e-4) (fun () ->
                 Channel.send ch Channel.A payload)))
        sizes;
      Engine.run e;
      Buffer.contents sent = Buffer.contents received)

let () =
  Alcotest.run "bgp_netsim"
    [ ( "channel-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_channel_fifo ] );
      ( "channel",
        List.concat_map
          (fun l ->
            let name what =
              if l == one_engine then what else what ^ " (" ^ l.name ^ ")"
            in
            [ Alcotest.test_case (name "connect and deliver") `Quick
                (test_channel_connect_and_deliver l);
              Alcotest.test_case (name "serialization order") `Quick
                (test_channel_serialization_order l);
              Alcotest.test_case (name "close drops in-flight") `Quick
                (test_channel_close_drops l) ])
          [ one_engine; two_partitions ]
        @ [ Alcotest.test_case "side B notifies A first" `Quick
              test_channel_b_notifies_a_first ] );
      ("traffic", [ Alcotest.test_case "packet rates" `Quick test_traffic_pps ]);
      ( "ip packet",
        Alcotest.test_case "serialize/parse" `Quick test_ip_serialize_parse
        :: Alcotest.test_case "parse errors" `Quick test_ip_parse_errors
        :: Alcotest.test_case "rfc1812 forwarding" `Quick test_ip_forwarding
        :: Alcotest.test_case "incremental checksum on wire" `Quick
             test_ip_forward_wire_incremental_checksum
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_ip_roundtrip; prop_incremental_checksum_agrees ] );
      ( "forwarding",
        [ Alcotest.test_case "dedicated" `Quick test_forwarding_dedicated;
          Alcotest.test_case "shared charges scheduler" `Quick
            test_forwarding_shared_charges_sched;
          Alcotest.test_case "contention loss" `Quick
            test_forwarding_shared_contention_loss
        ] )
    ]
