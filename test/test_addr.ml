open Bgp_addr

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Ipv4                                                                *)
(* ------------------------------------------------------------------ *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.to_string (ip s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.255.254"; "1.2.3.4" ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 10 20 30 40 in
  Alcotest.(check string) "octets" "10.20.30.40" (Ipv4.to_string a);
  let x, y, z, w = Ipv4.to_octets a in
  Alcotest.(check (list int)) "back" [ 10; 20; 30; 40 ] [ x; y; z; w ]

let test_ipv4_parse_errors () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Ok _ -> Alcotest.failf "should reject %S" s
      | Error _ -> ())
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1.2.3.4 "; " 1.2.3.4"; "a.b.c.d";
      "1..2.3"; "1.2.3.-4"; "01.2.3.4.5"; "1.2.3.4/8"; "1234.1.1.1" ]

let test_ipv4_order () =
  Alcotest.(check bool) "lt" true (Ipv4.compare (ip "1.0.0.0") (ip "2.0.0.0") < 0);
  Alcotest.(check bool)
    "128 > 127" true
    (Ipv4.compare (ip "128.0.0.0") (ip "127.255.255.255") > 0)

let test_ipv4_bits () =
  let a = ip "128.0.0.1" in
  Alcotest.(check bool) "bit0" true (Ipv4.bit a 0);
  Alcotest.(check bool) "bit1" false (Ipv4.bit a 1);
  Alcotest.(check bool) "bit31" true (Ipv4.bit a 31);
  Alcotest.check_raises "bit32" (Invalid_argument "Ipv4.bit: index out of range")
    (fun () -> ignore (Ipv4.bit a 32))

let test_ipv4_mask () =
  Alcotest.(check string) "/8" "255.0.0.0" (Ipv4.to_string (Ipv4.mask 8));
  Alcotest.(check string) "/0" "0.0.0.0" (Ipv4.to_string (Ipv4.mask 0));
  Alcotest.(check string) "/32" "255.255.255.255" (Ipv4.to_string (Ipv4.mask 32));
  Alcotest.(check string) "/19" "255.255.224.0" (Ipv4.to_string (Ipv4.mask 19));
  Alcotest.(check string) "apply" "10.1.0.0"
    (Ipv4.to_string (Ipv4.apply_mask (ip "10.1.2.3") 16))

let test_ipv4_arith () =
  Alcotest.(check string) "succ" "1.2.3.5" (Ipv4.to_string (Ipv4.succ (ip "1.2.3.4")));
  Alcotest.(check string) "wrap" "0.0.0.0" (Ipv4.to_string (Ipv4.succ Ipv4.broadcast));
  Alcotest.(check string) "add 256" "1.2.4.4"
    (Ipv4.to_string (Ipv4.add (ip "1.2.3.4") 256))

let test_common_prefix_len () =
  let check a b expect =
    Alcotest.(check int)
      (Printf.sprintf "%s %s" a b)
      expect
      (Ipv4.common_prefix_len (ip a) (ip b))
  in
  check "0.0.0.0" "0.0.0.0" 32;
  check "0.0.0.0" "128.0.0.0" 0;
  check "10.0.0.0" "10.0.0.1" 31;
  check "10.0.0.0" "10.128.0.0" 8;
  check "192.168.1.0" "192.168.1.128" 24

(* ------------------------------------------------------------------ *)
(* Prefix                                                              *)
(* ------------------------------------------------------------------ *)

(* make/addr/len/of_string/to_string round-trip at the encoding's
   edges: the shortest and longest lengths, the highest address. *)
let test_prefix_encoding_edges () =
  List.iter
    (fun (s, a, l) ->
      let p = Prefix.make (ip a) l in
      Alcotest.(check string) (s ^ " addr") a (Ipv4.to_string (Prefix.addr p));
      Alcotest.(check int) (s ^ " len") l (Prefix.len p);
      Alcotest.(check string) (s ^ " to_string") s (Prefix.to_string p);
      Alcotest.(check bool) (s ^ " of_string") true (Prefix.equal p (pfx s)))
    [ ("0.0.0.0/0", "0.0.0.0", 0); ("10.1.2.3/32", "10.1.2.3", 32);
      ("255.255.255.255/32", "255.255.255.255", 32);
      ("255.255.255.254/31", "255.255.255.254", 31); ("128.0.0.0/1", "128.0.0.0", 1) ];
  Alcotest.(check bool) "default is /0" true (Prefix.equal Prefix.default (pfx "0.0.0.0/0"));
  Alcotest.(check bool) "/32 above /0 of the same address" true
    (Prefix.compare (pfx "0.0.0.0/32") Prefix.default > 0);
  Alcotest.(check bool) "top address sorts last" true
    (Prefix.compare (pfx "255.255.255.255/32") (pfx "255.255.255.254/31") > 0)

let test_prefix_canonical () =
  let p = Prefix.make (ip "10.1.2.3") 16 in
  Alcotest.(check string) "canonical" "10.1.0.0/16" (Prefix.to_string p);
  Alcotest.(check bool) "equal" true (Prefix.equal p (pfx "10.1.0.0/16"))

let test_prefix_parse () =
  Alcotest.(check string) "p24" "192.168.1.0/24" (Prefix.to_string (pfx "192.168.1.0/24"));
  Alcotest.(check string) "bare /32" "1.2.3.4/32" (Prefix.to_string (pfx "1.2.3.4"));
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | Ok _ -> Alcotest.failf "should reject %S" s
      | Error _ -> ())
    [ "10.0.0.1/24"; "10.0.0.0/33"; "10.0.0.0/-1"; "10.0.0.0/"; "/24";
      "10.0.0.0/2 4";
      (* int_of_string-isms a strict decimal length parser must reject *)
      "10.0.0.0/0x18"; "10.0.0.0/2_4"; "10.0.0.0/+24"; "10.0.0.0/024" ]

let test_prefix_mem_subsumes () =
  let p = pfx "10.0.0.0/8" in
  Alcotest.(check bool) "mem in" true (Prefix.mem (ip "10.200.3.4") p);
  Alcotest.(check bool) "mem out" false (Prefix.mem (ip "11.0.0.0") p);
  Alcotest.(check bool) "subsumes" true (Prefix.subsumes p (pfx "10.42.0.0/16"));
  Alcotest.(check bool) "not subsumes" false
    (Prefix.subsumes (pfx "10.42.0.0/16") p);
  Alcotest.(check bool) "self" true (Prefix.subsumes p p);
  Alcotest.(check bool) "default subsumes all" true
    (Prefix.subsumes Prefix.default (pfx "203.0.113.0/24"))

let test_prefix_range () =
  let p = pfx "192.168.1.0/24" in
  Alcotest.(check string) "first" "192.168.1.0" (Ipv4.to_string (Prefix.first p));
  Alcotest.(check string) "last" "192.168.1.255" (Ipv4.to_string (Prefix.last p));
  Alcotest.(check (float 0.1)) "size" 256.0 (Prefix.size p);
  Alcotest.(check (float 1.0)) "size default" (Float.pow 2.0 32.0)
    (Prefix.size Prefix.default)

let test_prefix_split () =
  match Prefix.split (pfx "10.0.0.0/8") with
  | None -> Alcotest.fail "split /8 must succeed"
  | Some (lo, hi) ->
    Alcotest.(check string) "lo" "10.0.0.0/9" (Prefix.to_string lo);
    Alcotest.(check string) "hi" "10.128.0.0/9" (Prefix.to_string hi);
    Alcotest.(check bool) "split /32" true (Prefix.split (pfx "1.2.3.4/32") = None)

let test_prefix_wire_octets () =
  List.iter
    (fun (s, n) -> Alcotest.(check int) s n (Prefix.wire_octets (pfx s)))
    [ ("0.0.0.0/0", 0); ("10.0.0.0/8", 1); ("10.128.0.0/9", 2); ("10.1.0.0/16", 2);
      ("10.1.1.0/24", 3); ("10.1.1.0/25", 4); ("10.1.1.1/32", 4) ]

(* ------------------------------------------------------------------ *)
(* Prefix_set                                                          *)
(* ------------------------------------------------------------------ *)

let test_set_basic () =
  let s = Prefix_set.of_list [ pfx "10.0.0.0/8"; pfx "10.1.0.0/16"; pfx "192.168.0.0/16" ] in
  Alcotest.(check int) "cardinal" 3 (Prefix_set.cardinal s);
  Alcotest.(check bool) "mem" true (Prefix_set.mem (pfx "10.1.0.0/16") s);
  Alcotest.(check bool) "not mem" false (Prefix_set.mem (pfx "10.1.0.0/17") s)

let test_set_covering () =
  let s = Prefix_set.of_list [ pfx "10.0.0.0/8"; pfx "10.1.0.0/16"; pfx "0.0.0.0/0" ] in
  let covers = Prefix_set.covering (pfx "10.1.2.0/24") s in
  Alcotest.(check (list string)) "covering"
    [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16" ]
    (List.map Prefix.to_string covers);
  Alcotest.(check (option string)) "best" (Some "10.1.0.0/16")
    (Option.map Prefix.to_string (Prefix_set.best_covering (pfx "10.1.2.0/24") s));
  Alcotest.(check bool) "covers addr" true (Prefix_set.covers_addr (ip "10.9.9.9") s);
  Alcotest.(check bool) "empty covers nothing" false
    (Prefix_set.covers_addr (ip "10.9.9.9") Prefix_set.empty)

(* ------------------------------------------------------------------ *)
(* Prefix_gen                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let a = Prefix_gen.table ~seed:7 ~n:500 () in
  let b = Prefix_gen.table ~seed:7 ~n:500 () in
  Alcotest.(check bool) "same" true
    (Array.for_all2 Prefix.equal a b);
  let c = Prefix_gen.table ~seed:8 ~n:500 () in
  Alcotest.(check bool) "different seed differs" false
    (Array.for_all2 Prefix.equal a c)

let test_gen_distinct () =
  let t = Prefix_gen.table ~seed:1 ~n:5000 () in
  let set = Hashtbl.create 8192 in
  Array.iter (fun p -> Hashtbl.replace set p ()) t;
  Alcotest.(check int) "all distinct" 5000 (Hashtbl.length set)

let test_gen_prefix_property () =
  (* A longer table extends a shorter one for the same seed. *)
  let small = Prefix_gen.table ~seed:3 ~n:100 () in
  let big = Prefix_gen.table ~seed:3 ~n:1000 () in
  Array.iteri
    (fun i p -> Alcotest.(check bool) "extends" true (Prefix.equal p big.(i)))
    small

let test_gen_shape () =
  let t = Prefix_gen.table ~seed:42 ~n:20_000 () in
  let hist = Prefix_gen.length_histogram t in
  let count l = Option.value ~default:0 (List.assoc_opt l hist) in
  (* Mode must be /24 and short prefixes must be rare. *)
  List.iter
    (fun (l, c) ->
      if l <> 24 && c >= count 24 then
        Alcotest.failf "mode is /%d (%d) not /24 (%d)" l c (count 24))
    hist;
  Alcotest.(check bool) "short tail thin" true (count 8 * 20 < count 24);
  List.iter
    (fun (l, _) ->
      if l < 8 || l > 24 then Alcotest.failf "unexpected length /%d" l)
    hist

let test_gen_valid_space () =
  let t = Prefix_gen.table ~seed:42 ~n:5000 () in
  Array.iter
    (fun p ->
      let o, _, _, _ = Ipv4.to_octets (Prefix.addr p) in
      if o = 0 || o = 127 || o > 223 then
        Alcotest.failf "prefix %s outside plausible unicast space"
          (Prefix.to_string p))
    t

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_ipv4 =
  QCheck2.Gen.map Ipv4.of_int (QCheck2.Gen.int_range 0 0xFFFF_FFFF)

let arb_prefix =
  QCheck2.Gen.map2
    (fun a l -> Prefix.make a l)
    arb_ipv4
    (QCheck2.Gen.int_range 0 32)

let prop_ipv4_string_roundtrip =
  QCheck2.Test.make ~name:"ipv4 to_string/of_string roundtrip" ~count:1000
    arb_ipv4 (fun a ->
      match Ipv4.of_string (Ipv4.to_string a) with
      | Ok b -> Ipv4.equal a b
      | Error _ -> false)

let prop_prefix_string_roundtrip =
  QCheck2.Test.make ~name:"prefix to_string/of_string roundtrip" ~count:1000
    arb_prefix (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Ok q -> Prefix.equal p q
      | Error _ -> false)

let prop_mask_idempotent =
  QCheck2.Test.make ~name:"apply_mask idempotent" ~count:1000
    QCheck2.Gen.(pair arb_ipv4 (int_range 0 32))
    (fun (a, l) ->
      let m = Ipv4.apply_mask a l in
      Ipv4.equal m (Ipv4.apply_mask m l))

let prop_common_prefix_symmetric =
  QCheck2.Test.make ~name:"common_prefix_len symmetric and consistent" ~count:1000
    QCheck2.Gen.(pair arb_ipv4 arb_ipv4)
    (fun (a, b) ->
      let l = Ipv4.common_prefix_len a b in
      l = Ipv4.common_prefix_len b a
      && l >= 0 && l <= 32
      && Ipv4.equal (Ipv4.apply_mask a l) (Ipv4.apply_mask b l)
      && (l = 32 || Ipv4.bit a l <> Ipv4.bit b l))

let prop_subsumes_partial_order =
  QCheck2.Test.make ~name:"subsumes is a partial order" ~count:1000
    QCheck2.Gen.(triple arb_prefix arb_prefix arb_prefix)
    (fun (p, q, r) ->
      Prefix.subsumes p p
      && ((not (Prefix.subsumes p q && Prefix.subsumes q p)) || Prefix.equal p q)
      && ((not (Prefix.subsumes p q && Prefix.subsumes q r)) || Prefix.subsumes p r))

let prop_split_partitions =
  QCheck2.Test.make ~name:"split partitions the prefix" ~count:1000 arb_prefix
    (fun p ->
      match Prefix.split p with
      | None -> Prefix.len p = 32
      | Some (lo, hi) ->
        Prefix.subsumes p lo && Prefix.subsumes p hi
        && (not (Prefix.subsumes lo hi))
        && (not (Prefix.subsumes hi lo))
        && Prefix.size lo +. Prefix.size hi = Prefix.size p)

let prop_mem_first_last =
  QCheck2.Test.make ~name:"first/last bound membership" ~count:1000 arb_prefix
    (fun p ->
      Prefix.mem (Prefix.first p) p
      && Prefix.mem (Prefix.last p) p
      && (Prefix.len p = 0
         || not (Prefix.mem (Ipv4.succ (Prefix.last p)) p)
         || Ipv4.equal (Prefix.last p) Ipv4.broadcast))

(* Pairs that often share an address, so the length tie-break is hit. *)
let arb_prefix_pair =
  QCheck2.Gen.(
    let* p = arb_prefix in
    let* q =
      oneof [ arb_prefix; map (fun l -> Prefix.make (Prefix.addr p) l) (int_range 0 32) ]
    in
    return (p, q))

let sign c = Int.compare c 0

let prop_prefix_compare_lexicographic =
  QCheck2.Test.make ~name:"compare is (address, length) lexicographic" ~count:1000
    arb_prefix_pair (fun (p, q) ->
      let c = Ipv4.compare (Prefix.addr p) (Prefix.addr q) in
      let expect = if c <> 0 then c else Int.compare (Prefix.len p) (Prefix.len q) in
      sign (Prefix.compare p q) = sign expect)

let prop_prefix_polymorphic_compare =
  QCheck2.Test.make ~name:"polymorphic compare agrees with Prefix.compare"
    ~count:1000 arb_prefix_pair (fun (p, q) ->
      sign (compare p q) = sign (Prefix.compare p q)
      && (p = q) = Prefix.equal p q)

(* The formula fixes the iteration order of every prefix-keyed table
   (Loc-RIB, Adj-RIB); changing it reorders their output. *)
let prop_prefix_hash_formula =
  QCheck2.Test.make ~name:"hash is addr hash * 31 + len" ~count:1000 arb_prefix
    (fun p ->
      Prefix.hash p = (Ipv4.hash (Prefix.addr p) * 31) + Prefix.len p)

let prop_gen_same_seed_identical =
  (* Any seed, any table size: re-generation yields the identical
     stream — the repeatability every topology run depends on. *)
  QCheck2.Test.make ~name:"prefix_gen same seed, identical stream" ~count:50
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 400))
    (fun (seed, n) ->
      let a = Prefix_gen.table ~seed ~n () in
      let b = Prefix_gen.table ~seed ~n () in
      Array.for_all2 Prefix.equal a b)

let prop_gen_distinct_seeds_disjoint =
  (* Streams of different seeds may share the odd prefix (the space is
     finite) but must be overwhelmingly disjoint: allow at most 10%
     overlap between two independently seeded tables. *)
  QCheck2.Test.make ~name:"prefix_gen distinct seeds, mostly disjoint"
    ~count:50
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 1 1_000_000)
        (int_range 50 300))
    (fun (s1, delta, n) ->
      let s2 = s1 + delta in
      let a = Prefix_gen.table ~seed:s1 ~n () in
      let b = Prefix_gen.table ~seed:s2 ~n () in
      let seen = Hashtbl.create (2 * n) in
      Array.iter (fun p -> Hashtbl.replace seen p ()) a;
      let shared =
        Array.fold_left
          (fun acc p -> if Hashtbl.mem seen p then acc + 1 else acc)
          0 b
      in
      shared * 10 <= n)

(* ------------------------------------------------------------------ *)
(* Prefix_index against Stdlib.Hashtbl                                 *)
(* ------------------------------------------------------------------ *)

(* Keys whose probe starts at the last slot of a 1024-slot array, and so
   (the home is the hash's high bits) at the last slot of every smaller
   one too: they form one probe cluster that wraps the end of the array
   at every size the test reaches, so inserts and backward-shift deletes
   cross the wrap. *)
let cluster_keys =
  let rec go acc n i =
    if n = 0 then Array.of_list (List.rev acc)
    else
      let p = Prefix.make (Ipv4.of_int (i lsl 8)) 24 in
      if Prefix_index.home ~capacity:1024 p = 1023 then go (p :: acc) (n - 1) (i + 1)
      else go acc n (i + 1)
  in
  go [] 24 0

let index_keys =
  Array.append cluster_keys
    (Array.init 24 (fun i -> Prefix.make (Ipv4.of_int (0x0A000000 + (i lsl 12))) 20))

type index_op = Ix_add of int | Ix_remove of int | Ix_find of int

(* A growth phase biased to adds, then a phase biased to removes, so
   every run grows the arrays and (with [~shrink:true]) shrinks them
   again. *)
let gen_index_ops =
  QCheck2.Gen.(
    let key = int_range 0 (Array.length index_keys - 1) in
    let phase add remove =
      list_size (int_range 0 150)
        (frequency
           [ (add, map (fun k -> Ix_add k) key);
             (remove, map (fun k -> Ix_remove k) key);
             (1, map (fun k -> Ix_find k) key) ])
    in
    let* grow = phase 6 1 in
    let* drain = phase 1 6 in
    return (grow @ drain))

let prop_index_vs_hashtbl =
  QCheck2.Test.make ~name:"prefix index agrees with Hashtbl" ~count:300
    QCheck2.Gen.(pair bool gen_index_ops)
    (fun (shrink, ops) ->
      let t = Prefix_index.create ~shrink () in
      let model = Hashtbl.create 64 in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let check () =
        let n = Prefix_index.size t in
        if n <> Hashtbl.length model then fail "size %d, model %d" n (Hashtbl.length model);
        if 2 * n > Prefix_index.slots t then fail "%d members in %d slots" n (Prefix_index.slots t);
        if Prefix_index.capacity t < n then fail "capacity below size";
        if shrink && n = 0 && (Prefix_index.capacity t, Prefix_index.slots t) <> (0, 8) then
          fail "an emptied index kept its arrays";
        Array.iter
          (fun p ->
            let id = Prefix_index.find t p in
            if Hashtbl.mem model p then begin
              if id < 0 || id >= n || not (Prefix.equal (Prefix_index.key t id) p) then
                fail "%s: id %d" (Prefix.to_string p) id
            end
            else if id <> -1 then fail "%s: absent but found" (Prefix.to_string p))
          index_keys
      in
      List.iter
        (fun op ->
          (match op with
          | Ix_add k ->
            let p = index_keys.(k) in
            let n = Prefix_index.size t in
            let before = Prefix_index.find t p in
            let id = Prefix_index.add t p in
            if id <> (if before >= 0 then before else n) then fail "add: id %d" id;
            Hashtbl.replace model p ()
          | Ix_remove k ->
            let p = index_keys.(k) in
            let before = Prefix_index.find t p in
            let n = Prefix_index.size t in
            let last = if n > 0 then Some (Prefix_index.key t (n - 1)) else None in
            let id = Prefix_index.remove t p in
            if id <> before then fail "remove: id %d, held %d" id before;
            Hashtbl.remove model p;
            (* The member that held the last id now holds the freed one. *)
            (match last with
            | Some q when id >= 0 && not (Prefix.equal q p) ->
              if Prefix_index.find t q <> id then fail "last member not renumbered"
            | _ -> ())
          | Ix_find _ -> ());
          check ())
        ops;
      true)

(* The printers write digits by hand; they must spell exactly what
   the Printf forms they replaced did. *)
let prop_to_string_is_printf =
  QCheck2.Test.make ~name:"to_string equals the Printf form" ~count:1000
    arb_prefix (fun p ->
      let a = Prefix.addr p in
      let x, y, z, w = Ipv4.to_octets a in
      let dotted = Printf.sprintf "%d.%d.%d.%d" x y z w in
      String.equal (Ipv4.to_string a) dotted
      && String.equal (Prefix.to_string p)
           (Printf.sprintf "%s/%d" dotted (Prefix.len p)))

let prop_decimal_is_string_of_int =
  QCheck2.Test.make ~name:"Decimal.add_int equals string_of_int" ~count:1000
    QCheck2.Gen.(
      oneof
        [ int; int_range (-1000) 1000; oneofl [ 0; max_int; min_int; min_int + 1 ] ])
    (fun n ->
      let buf = Buffer.create 4 in
      Buffer.add_char buf '|';
      Decimal.add_int buf n;
      String.equal (Buffer.contents buf) ("|" ^ string_of_int n))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_addr"
    [ ( "ipv4",
        [ Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "parse errors" `Quick test_ipv4_parse_errors;
          Alcotest.test_case "ordering" `Quick test_ipv4_order;
          Alcotest.test_case "bits" `Quick test_ipv4_bits;
          Alcotest.test_case "masks" `Quick test_ipv4_mask;
          Alcotest.test_case "arithmetic" `Quick test_ipv4_arith;
          Alcotest.test_case "common prefix length" `Quick test_common_prefix_len
        ] );
      ( "prefix",
        [ Alcotest.test_case "canonicalization" `Quick test_prefix_canonical;
          Alcotest.test_case "parsing" `Quick test_prefix_parse;
          Alcotest.test_case "mem/subsumes" `Quick test_prefix_mem_subsumes;
          Alcotest.test_case "first/last/size" `Quick test_prefix_range;
          Alcotest.test_case "split" `Quick test_prefix_split;
          Alcotest.test_case "wire octets" `Quick test_prefix_wire_octets;
          Alcotest.test_case "encoding edges" `Quick test_prefix_encoding_edges
        ] );
      ( "prefix_set",
        [ Alcotest.test_case "basic" `Quick test_set_basic;
          Alcotest.test_case "covering" `Quick test_set_covering
        ] );
      ( "prefix_gen",
        [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "distinct" `Quick test_gen_distinct;
          Alcotest.test_case "prefix property" `Quick test_gen_prefix_property;
          Alcotest.test_case "length distribution shape" `Quick test_gen_shape;
          Alcotest.test_case "plausible address space" `Quick test_gen_valid_space
        ] );
      qsuite "properties"
        [ prop_ipv4_string_roundtrip; prop_prefix_string_roundtrip;
          prop_mask_idempotent; prop_common_prefix_symmetric;
          prop_subsumes_partial_order; prop_split_partitions;
          prop_mem_first_last; prop_prefix_compare_lexicographic;
          prop_prefix_polymorphic_compare; prop_prefix_hash_formula;
          prop_gen_same_seed_identical; prop_gen_distinct_seeds_disjoint;
          prop_index_vs_hashtbl; prop_to_string_is_printf;
          prop_decimal_is_string_of_int ]
    ]
