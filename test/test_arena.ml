(* Properties of the hash-consing attribute arena: interning is
   idempotent, preserves structural equality, survives the wire codec,
   and the memoized decision-preference tuple agrees with the decision
   process on random attribute pairs. *)

open Bgp_wire
module A = Bgp_route.Attrs
module I = A.Interned
module Asn = Bgp_route.Asn
module As_path = Bgp_route.As_path
module Community = Bgp_route.Community
module Route = Bgp_route.Route
module Peer = Bgp_route.Peer
module Ipv4 = Bgp_addr.Ipv4
module Prefix = Bgp_addr.Prefix
module Decision = Bgp_rib.Decision

let ip = Ipv4.of_string_exn
let asn = Asn.of_int

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_asn = QCheck2.Gen.map Asn.of_int (QCheck2.Gen.int_range 1 65535)

let gen_seg =
  QCheck2.Gen.(
    bind bool (fun is_set ->
        map
          (fun l -> if is_set then As_path.Set l else As_path.Seq l)
          (list_size (int_range 1 6) gen_asn)))

(* Deliberately narrow value ranges: collisions between independently
   generated attribute sets are what exercise the arena's sharing. *)
let gen_attrs =
  QCheck2.Gen.(
    let* segs = list_size (int_range 0 2) gen_seg in
    let* origin = oneofl [ A.Igp; A.Egp; A.Incomplete ] in
    let* med = option (int_range 0 3) in
    let* lp = option (int_range 99 101) in
    let* ncomm = int_range 0 3 in
    let* comm_raw = list_size (return ncomm) (int_range 0 5) in
    let* nh = map Ipv4.of_int (int_range 1 4) in
    return
      (A.make ~origin ?med ?local_pref:lp
         ~communities:(List.map Community.of_int32_value comm_raw)
         ~as_path:(As_path.of_segments segs) ~next_hop:nh ()))

let gen_attrs_pair = QCheck2.Gen.pair gen_attrs gen_attrs

let print_attrs a = Format.asprintf "%a" A.pp a
let print_pair (a, b) = print_attrs a ^ " / " ^ print_attrs b

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_idempotent =
  QCheck2.Test.make ~name:"intern (value (intern a)) == intern a" ~count:500
    ~print:print_attrs gen_attrs (fun a ->
      let h = I.intern a in
      I.intern (I.value h) == h && I.intern a == h)

let prop_preserves_equal =
  QCheck2.Test.make ~name:"Interned.equal mirrors Attrs.equal" ~count:1000
    ~print:print_pair gen_attrs_pair (fun (a, b) ->
      I.equal (I.intern a) (I.intern b) = A.equal a b)

let prop_id_equality =
  QCheck2.Test.make ~name:"equal attrs share one handle (same id)" ~count:1000
    ~print:print_pair gen_attrs_pair (fun (a, b) ->
      if A.equal a b then I.id (I.intern a) = I.id (I.intern b)
      else I.id (I.intern a) <> I.id (I.intern b))

let prop_community_order =
  QCheck2.Test.make
    ~name:"community order and duplicates do not split arena entries"
    ~count:500 ~print:print_attrs gen_attrs (fun a ->
      let cs = a.A.communities in
      let scrambled =
        A.make ~origin:a.A.origin ?med:a.A.med ?local_pref:a.A.local_pref
          ~communities:(List.rev cs @ cs) ~as_path:a.A.as_path
          ~next_hop:a.A.next_hop ()
      in
      I.intern scrambled == I.intern a)

let prop_wire_roundtrip =
  QCheck2.Test.make ~name:"wire roundtrip returns the same handle"
    ~count:500 ~print:print_attrs gen_attrs (fun a ->
      let h = I.intern a in
      let m = Msg.announcement_interned h [ Prefix.of_string_exn "203.0.113.0/24" ] in
      match Codec.decode (Codec.encode m) with
      | Ok (Msg.Update { Msg.attrs = Some h'; _ }) -> h' == h
      | Ok _ | Error _ -> false)

(* [gen_attrs] with the RFC 4456 reflection attributes, which only the
   preference tuple reads. *)
let gen_reflected_attrs =
  QCheck2.Gen.(
    let* a = gen_attrs in
    let* originator_id = option (map Ipv4.of_int (int_range 1 3)) in
    let* cluster_list = list_size (int_range 0 2) (map Ipv4.of_int (int_range 1 3)) in
    return { a with A.originator_id; cluster_list })

let prop_pref_memo =
  QCheck2.Test.make ~name:"memoized pref tuple matches direct reads"
    ~count:1000 ~print:print_attrs gen_reflected_attrs (fun a ->
      let p = I.pref (I.intern a) in
      p.A.pr_local_pref
      = Option.value ~default:A.default_local_pref a.A.local_pref
      && p.A.pr_path_len = As_path.length a.A.as_path
      && p.A.pr_origin = A.origin_to_int a.A.origin
      && p.A.pr_med = Option.value ~default:0 a.A.med
      && Option.equal Asn.equal p.A.pr_first_hop
           (As_path.first_hop a.A.as_path)
      && p.A.pr_originator_id
         = Option.fold ~none:(-1) ~some:Ipv4.to_int a.A.originator_id
      && p.A.pr_cluster_len = List.length a.A.cluster_list)

(* Reference implementation of the attribute-dependent decision steps,
   reading the raw records rather than the memoized tuples. *)
let ref_attr_compare a b =
  let lp x = Option.value ~default:A.default_local_pref x.A.local_pref in
  let med x = Option.value ~default:0 x.A.med in
  let steps =
    [ (fun () -> Int.compare (lp a) (lp b));
      (fun () ->
        Int.compare (As_path.length b.A.as_path) (As_path.length a.A.as_path));
      (fun () ->
        Int.compare
          (A.origin_to_int b.A.origin)
          (A.origin_to_int a.A.origin));
      (fun () ->
        match As_path.first_hop a.A.as_path, As_path.first_hop b.A.as_path with
        | Some na, Some nb when Asn.equal na nb ->
          Int.compare (med b) (med a)
        | _ -> 0)
    ]
  in
  List.fold_left (fun c step -> if c <> 0 then c else step ()) 0 steps

let peer1 = Peer.make ~id:1 ~asn:(asn 65001) ~router_id:(ip "10.0.0.1") ~addr:(ip "10.0.0.1")
let peer2 = Peer.make ~id:2 ~asn:(asn 65002) ~router_id:(ip "10.0.0.2") ~addr:(ip "10.0.0.2")

let prop_decision_agrees =
  QCheck2.Test.make
    ~name:"decision process agrees with raw-attribute reference" ~count:1000
    ~print:print_pair gen_attrs_pair (fun (a, b) ->
      let prefix = Prefix.of_string_exn "203.0.113.0/24" in
      let ra = Route.make ~prefix ~attrs:a ~from:peer1 in
      let rb = Route.make ~prefix ~attrs:b ~from:peer2 in
      let c, rule = Decision.compare_routes ~local_asn:(asn 65000) ra rb in
      let expected = ref_attr_compare a b in
      if expected <> 0 then compare expected 0 = compare c 0
      else
        (* Attributes tie through every memoized step; both peers are
           EBGP and non-local, so the discriminator must be a peer
           property, not an attribute. *)
        match rule with
        | Decision.Router_id | Decision.Peer_address | Decision.Identical ->
          true
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Unit tests: stats accounting, shards and clear                      *)
(* ------------------------------------------------------------------ *)

let distinct_attrs tag =
  (* A set unlikely to collide with generator output: MED far outside
     the generator's range keys each call to a fresh arena entry. *)
  A.make ~med:(1_000_000 + tag)
    ~as_path:(As_path.of_asns [ asn 64512 ])
    ~next_hop:(ip "198.51.100.1") ()

let test_stats_accounting () =
  let before = I.stats () in
  let a = distinct_attrs 1 in
  let h1 = I.intern a in
  let h2 = I.intern a in
  let after = I.stats () in
  Alcotest.(check bool) "same handle" true (h1 == h2);
  Alcotest.(check int) "two interns" (before.I.interns + 2) after.I.interns;
  Alcotest.(check int) "one hit" (before.I.hits + 1) after.I.hits;
  Alcotest.(check int) "one new live entry" (before.I.live + 1) after.I.live;
  Alcotest.(check bool) "saved bytes grew" true
    (after.I.saved_bytes > before.I.saved_bytes)

let test_cross_shard_structural () =
  let a = distinct_attrs 2 in
  let h0 = I.intern a in
  let h7 =
    Fun.protect
      ~finally:(fun () -> I.bind_shard 0)
      (fun () ->
        I.bind_shard 7;
        I.intern a)
  in
  Alcotest.(check bool) "distinct ids" true (I.id h0 <> I.id h7);
  Alcotest.(check bool) "equal both ways (structural fallback)" true
    (I.equal h0 h7 && I.equal h7 h0);
  let before = I.stats () in
  Alcotest.(check bool) "foreign handle is no hit" false (I.hit h7);
  Alcotest.(check bool) "a missed hit records nothing" true
    (I.stats () = before)

let test_clear_keeps_ids_fresh () =
  let a = distinct_attrs 3 in
  let h_old = I.intern a in
  I.clear ();
  let s = I.stats () in
  Alcotest.(check int) "stats zeroed" 0 (s.I.interns + s.I.hits + s.I.live);
  let h_new = I.intern a in
  Alcotest.(check bool) "post-clear id is fresh" true
    (I.id h_new > I.id h_old);
  Alcotest.(check bool) "stale handle still structurally equal" true
    (I.equal h_old h_new)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "arena"
    [ qsuite "properties"
        [ prop_idempotent; prop_preserves_equal; prop_id_equality;
          prop_community_order; prop_wire_roundtrip; prop_pref_memo;
          prop_decision_agrees ];
      ( "units",
        [ Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "structural equality across shards" `Quick
            test_cross_shard_structural;
          Alcotest.test_case "clear keeps ids fresh" `Quick
            test_clear_keeps_ids_fresh ] ) ]
