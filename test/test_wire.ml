open Bgp_wire
module A = Bgp_route.Attrs
module Asn = Bgp_route.Asn
module As_path = Bgp_route.As_path
module Community = Bgp_route.Community
module Ipv4 = Bgp_addr.Ipv4
module Prefix = Bgp_addr.Prefix

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn
let asn = Asn.of_int

let msg_testable =
  Alcotest.testable Msg.pp (fun a b ->
      (* Structural equality is adequate here except for attrs; compare
         through the printer to keep the testable simple and total. *)
      match a, b with
      | Msg.Update x, Msg.Update y ->
        List.equal Prefix.equal x.Msg.withdrawn y.Msg.withdrawn
        && List.equal Prefix.equal x.Msg.nlri y.Msg.nlri
        && Option.equal A.Interned.equal x.Msg.attrs y.Msg.attrs
      | a, b -> a = b)

let roundtrip m =
  match Codec.decode (Codec.encode m) with
  | Ok m' -> m'
  | Error e -> Alcotest.failf "decode failed: %s" (Format.asprintf "%a" Msg.pp_error e)

let expect_error name buf pred =
  match Codec.decode buf with
  | Ok m -> Alcotest.failf "%s: expected error, decoded %s" name (Msg.kind_name m)
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error %s" name (Format.asprintf "%a" Msg.pp_error e)

let set_byte s i v =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr v);
  Bytes.to_string b

let attrs ?med ?local_pref ?(communities = []) path_asns =
  A.make ?med ?local_pref ~communities
    ~as_path:(As_path.of_asns (List.map asn path_asns))
    ~next_hop:(ip "192.0.2.7") ()

(* ------------------------------------------------------------------ *)
(* Exact wire images                                                   *)
(* ------------------------------------------------------------------ *)

let test_keepalive_bytes () =
  let w = Codec.encode Msg.Keepalive in
  Alcotest.(check int) "length" 19 (String.length w);
  for i = 0 to 15 do
    Alcotest.(check char) "marker" '\xFF' w.[i]
  done;
  Alcotest.(check int) "len hi" 0 (Char.code w.[16]);
  Alcotest.(check int) "len lo" 19 (Char.code w.[17]);
  Alcotest.(check int) "type" 4 (Char.code w.[18])

let test_open_bytes () =
  let m = Msg.open_msg ~hold_time:180 ~asn:(asn 65100) ~bgp_id:(ip "10.0.0.1") () in
  let w = Codec.encode m in
  Alcotest.(check int) "length" 29 (String.length w);
  Alcotest.(check int) "type" 1 (Char.code w.[18]);
  Alcotest.(check int) "version" 4 (Char.code w.[19]);
  Alcotest.(check int) "asn"
    65100
    ((Char.code w.[20] lsl 8) lor Char.code w.[21]);
  Alcotest.(check int) "hold" 180 ((Char.code w.[22] lsl 8) lor Char.code w.[23]);
  Alcotest.(check (list int)) "bgp id" [ 10; 0; 0; 1 ]
    [ Char.code w.[24]; Char.code w.[25]; Char.code w.[26]; Char.code w.[27] ];
  Alcotest.(check int) "no params" 0 (Char.code w.[28])

let test_notification_bytes () =
  let w = Codec.encode (Msg.Notification Msg.Hold_timer_expired) in
  Alcotest.(check int) "length" 21 (String.length w);
  Alcotest.(check int) "code" 4 (Char.code w.[19]);
  Alcotest.(check int) "sub" 0 (Char.code w.[20])

let test_update_nlri_bytes () =
  (* One /24 announcement: header(19) + wlen(2) + alen(2) + attrs + nlri(4) *)
  let m = Msg.announcement (attrs [ 65001 ]) [ pfx "203.0.113.0/24" ] in
  let w = Codec.encode m in
  (* attrs: origin(4) + as_path(3+2+2)=... flags,code,len = 3 bytes each hdr *)
  (* origin: 3+1=4; as_path: 3 + (1+1+2)=7; next_hop: 3+4=7  => 18 *)
  let expect = 19 + 2 + 2 + 18 + 4 in
  Alcotest.(check int) "length" expect (String.length w);
  (* NLRI tail: 24, 203, 0, 113 *)
  let n = String.length w in
  Alcotest.(check (list int)) "nlri" [ 24; 203; 0; 113 ]
    [ Char.code w.[n - 4]; Char.code w.[n - 3]; Char.code w.[n - 2];
      Char.code w.[n - 1] ]

(* ------------------------------------------------------------------ *)
(* Roundtrips                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_open () =
  let m =
    Msg.open_msg ~hold_time:90
      ~params:[ Msg.Capability (Msg.Multiprotocol (1, 1)); Msg.Capability Msg.Route_refresh ]
      ~asn:(asn 7018) ~bgp_id:(ip "198.51.100.1") ()
  in
  Alcotest.check msg_testable "open" m (roundtrip m)

let test_roundtrip_update_full () =
  let a =
    A.make ~origin:A.Egp ~med:42 ~local_pref:150 ~atomic_aggregate:true
      ~aggregator:(asn 7018, ip "10.9.9.9")
      ~communities:[ Community.make (asn 7018) 666; Community.no_export ]
      ~originator_id:(ip "10.0.0.7")
      ~cluster_list:[ ip "10.0.0.1"; ip "10.0.0.2" ]
      ~as_path:
        (As_path.of_segments
           [ As_path.Seq [ asn 7018; asn 701 ]; As_path.Set [ asn 3356; asn 2914 ] ])
      ~next_hop:(ip "192.0.2.7") ()
  in
  let m =
    Msg.update
      ~withdrawn:[ pfx "10.0.0.0/8"; pfx "172.16.0.0/12"; pfx "0.0.0.0/0" ]
      ~attrs:a
      ~nlri:[ pfx "203.0.113.0/24"; pfx "198.51.100.128/25"; pfx "192.0.2.1/32" ]
      ()
  in
  Alcotest.check msg_testable "update" m (roundtrip m)

let test_roundtrip_withdraw_only () =
  let m = Msg.withdrawal [ pfx "10.0.0.0/8" ] in
  Alcotest.check msg_testable "withdraw" m (roundtrip m)

let test_roundtrip_keepalive_notification () =
  Alcotest.check msg_testable "ka" Msg.Keepalive (roundtrip Msg.Keepalive);
  List.iter
    (fun e ->
      let m = Msg.Notification e in
      match roundtrip m with
      | Msg.Notification e' ->
        Alcotest.(check (pair int int)) "code preserved" (Msg.error_code e)
          (Msg.error_code e')
      | other -> Alcotest.failf "expected notification, got %s" (Msg.kind_name other))
    [ Msg.Hold_timer_expired; Msg.Fsm_error; Msg.Cease;
      Msg.Open_message_error Msg.Bad_peer_as;
      Msg.Update_message_error Msg.Invalid_network_field;
      Msg.Message_header_error Msg.Connection_not_synchronized ]

let test_route_refresh () =
  let w = Codec.encode Msg.route_refresh in
  Alcotest.(check int) "length" 23 (String.length w);
  Alcotest.(check int) "type" 5 (Char.code w.[18]);
  (match Codec.decode w with
  | Ok (Msg.Route_refresh (1, 1)) -> ()
  | _ -> Alcotest.fail "roundtrip failed");
  (* arbitrary AFI/SAFI *)
  (match Codec.decode (Codec.encode (Msg.Route_refresh (2, 128))) with
  | Ok (Msg.Route_refresh (2, 128)) -> ()
  | _ -> Alcotest.fail "afi/safi roundtrip");
  (* wrong length for type 5 must be rejected *)
  let bad = set_byte (set_byte w 16 0) 17 25 in
  expect_error "bad refresh length" (bad ^ "xx") (function
    | Msg.Message_header_error (Msg.Bad_message_length _) -> true
    | _ -> false)

let test_roundtrip_big_update () =
  (* The paper's "large packet": 500 prefixes in one UPDATE. *)
  let table = Bgp_addr.Prefix_gen.table ~seed:9 ~n:500 () in
  let m = Msg.announcement (attrs [ 65001; 65002 ]) (Array.to_list table) in
  let w = Codec.encode m in
  Alcotest.(check bool) "fits in max size" true (String.length w <= Msg.max_len);
  Alcotest.check msg_testable "roundtrip" m (roundtrip m);
  Alcotest.(check int) "count" 500 (Msg.nlri_count (roundtrip m));
  Alcotest.(check (option string)) "encode_opt agrees" (Some w)
    (Codec.encode_opt m);
  (* Past 4096 bytes there is no image: [encode_opt] says so, [encode]
     raises. *)
  let table = Bgp_addr.Prefix_gen.table ~seed:9 ~n:1100 () in
  let over = Msg.announcement (attrs [ 65001; 65002 ]) (Array.to_list table) in
  Alcotest.(check (option string)) "oversize" None (Codec.encode_opt over);
  match Codec.encode over with
  | _ -> Alcotest.fail "encode of an oversize UPDATE must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Malformed input                                                     *)
(* ------------------------------------------------------------------ *)

let test_bad_marker () =
  let w = set_byte (Codec.encode Msg.Keepalive) 3 0 in
  expect_error "marker" w (function
    | Msg.Message_header_error Msg.Connection_not_synchronized -> true
    | _ -> false)

let test_bad_length () =
  (* Header claims more than buffer holds. *)
  let w = Codec.encode Msg.Keepalive in
  let w = set_byte w 17 200 in
  expect_error "length" w (function
    | Msg.Message_header_error (Msg.Bad_message_length _) -> true
    | _ -> false);
  (* Length below the 19-byte minimum. *)
  let w2 = set_byte (Codec.encode Msg.Keepalive) 17 10 in
  expect_error "short" w2 (function
    | Msg.Message_header_error (Msg.Bad_message_length _) -> true
    | _ -> false)

let test_bad_type () =
  let w = set_byte (Codec.encode Msg.Keepalive) 18 9 in
  expect_error "type" w (function
    | Msg.Message_header_error (Msg.Bad_message_type 9) -> true
    | _ -> false)

let test_truncated () =
  let w = Codec.encode (Msg.open_msg ~asn:(asn 1) ~bgp_id:(ip "1.1.1.1") ()) in
  let w = String.sub w 0 (String.length w - 2) in
  expect_error "truncated" w (function
    | Msg.Message_header_error (Msg.Bad_message_length _) -> true
    | _ -> false)

let test_bad_open_fields () =
  let base = Codec.encode (Msg.open_msg ~asn:(asn 1) ~bgp_id:(ip "1.1.1.1") ()) in
  (* version 3 *)
  expect_error "version" (set_byte base 19 3) (function
    | Msg.Open_message_error (Msg.Unsupported_version 3) -> true
    | _ -> false);
  (* AS 0 *)
  let w = set_byte (set_byte base 20 0) 21 0 in
  expect_error "as0" w (function
    | Msg.Open_message_error Msg.Bad_peer_as -> true
    | _ -> false);
  (* hold time 2 *)
  let w = set_byte (set_byte base 22 0) 23 2 in
  expect_error "hold" w (function
    | Msg.Open_message_error Msg.Unacceptable_hold_time -> true
    | _ -> false);
  (* bgp id 0.0.0.0 *)
  let w = set_byte (set_byte (set_byte (set_byte base 24 0) 25 0) 26 0) 27 0 in
  expect_error "id" w (function
    | Msg.Open_message_error Msg.Bad_bgp_identifier -> true
    | _ -> false)

let test_bad_update () =
  (* NLRI present but no attributes: craft update with wlen=0 alen=0 nlri. *)
  let b = Buffer.create 32 in
  for _ = 1 to 16 do Buffer.add_char b '\xFF' done;
  let body = "\x00\x00\x00\x00\x18\xCB\x00\x71" (* wlen=0 alen=0 nlri 203.0.113/24 *) in
  let total = 19 + String.length body in
  Buffer.add_char b (Char.chr (total lsr 8));
  Buffer.add_char b (Char.chr (total land 0xFF));
  Buffer.add_char b '\x02';
  Buffer.add_string b body;
  expect_error "nlri no attrs" (Buffer.contents b) (function
    | Msg.Update_message_error (Msg.Missing_wellknown_attribute _) -> true
    | _ -> false)

let test_bad_prefix_length () =
  (* Withdrawn prefix with length 33. *)
  let b = Buffer.create 32 in
  for _ = 1 to 16 do Buffer.add_char b '\xFF' done;
  let body = "\x00\x05\x21\x0A\x00\x00\x00\x00\x00" (* wlen=5, /33 prefix, alen=0 *) in
  let total = 19 + String.length body in
  Buffer.add_char b (Char.chr (total lsr 8));
  Buffer.add_char b (Char.chr (total land 0xFF));
  Buffer.add_char b '\x02';
  Buffer.add_string b body;
  expect_error "prefix len 33" (Buffer.contents b) (function
    | Msg.Update_message_error Msg.Invalid_network_field -> true
    | _ -> false)

let test_trailing_garbage () =
  let w = Codec.encode Msg.Keepalive ^ "x" in
  expect_error "trailing" w (function
    | Msg.Message_header_error (Msg.Bad_message_length _) -> true
    | _ -> false)

let update_frame body =
  let b = Buffer.create 32 in
  for _ = 1 to 16 do Buffer.add_char b '\xFF' done;
  let total = 19 + String.length body in
  Buffer.add_char b (Char.chr (total lsr 8));
  Buffer.add_char b (Char.chr (total land 0xFF));
  Buffer.add_char b '\x02';
  Buffer.add_string b body;
  Buffer.contents b

let check_bad_length what w expected =
  match Codec.decode w with
  | Error (Msg.Message_header_error (Msg.Bad_message_length l)) ->
    Alcotest.(check int) what expected l
  | Error e ->
    Alcotest.failf "%s: wrong error %s" what
      (Format.asprintf "%a" Msg.pp_error e)
  | Ok _ -> Alcotest.failf "%s: expected error" what

let test_declared_length_reported () =
  (* RFC 4271 §6.1: Bad_message_length carries the erroneous Length
     field, so the NOTIFICATION data names the bad frame — never a
     meaningless 0. *)
  (* A body read that silently runs off the declared message end (the
     attribute-length u16 here has only one byte left) must report the
     header's declared length. *)
  let w = update_frame "\x00\x02\x00\x00\x00" in
  check_bad_length "reader overrun reports declared length" w
    (String.length w);
  (* An optional-parameters length claiming bytes past the message end
     is itself the erroneous Length field. *)
  let base = Codec.encode (Msg.open_msg ~asn:(asn 1) ~bgp_id:(ip "1.1.1.1") ()) in
  check_bad_length "erroneous opt-param length" (set_byte base 28 200) 200;
  (* And through the header path: a length field beyond the buffer. *)
  check_bad_length "header-declared length"
    (set_byte (set_byte base 16 0x12) 17 0x34)
    0x1234

let test_truncated_attr_bodies () =
  (* Attribute header cut off after the flags octet: the attribute
     list as a whole is malformed (§6.3). *)
  expect_error "flags only" (update_frame "\x00\x00\x00\x01\x40") (function
    | Msg.Update_message_error Msg.Malformed_attribute_list -> true
    | _ -> false);
  (* Extended-length attribute with only one of its two length octets:
     Attribute Length Error naming the attribute. *)
  expect_error "half extended length"
    (update_frame "\x00\x00\x00\x03\x50\x0E\x01") (function
    | Msg.Update_message_error (Msg.Attribute_length_error 0x0E) -> true
    | _ -> false);
  (* Declared attribute value longer than the remaining attribute
     section: ORIGIN claiming 2 bytes with 1 present. *)
  expect_error "value overruns section"
    (update_frame "\x00\x00\x00\x04\x40\x01\x02\x00") (function
    | Msg.Update_message_error (Msg.Attribute_length_error 0x01) -> true
    | _ -> false)

let test_truncated_nlri_body () =
  (* NLRI whose prefix bytes are cut off by the message end. *)
  let a = attrs [ 65001 ] in
  let good = Codec.encode (Msg.announcement a [ pfx "203.0.113.0/24" ]) in
  (* Drop the last NLRI byte and fix the header length so the frame is
     complete but the /24 has only two address bytes. *)
  let cut = String.length good - 1 in
  let w = set_byte (set_byte (String.sub good 0 cut) 16 (cut lsr 8)) 17 (cut land 0xFF) in
  expect_error "nlri cut" w (function
    | Msg.Update_message_error Msg.Invalid_network_field -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Streaming / framing                                                 *)
(* ------------------------------------------------------------------ *)

let test_decode_at_stream () =
  let m1 = Msg.Keepalive in
  let m2 = Msg.announcement (attrs [ 1; 2 ]) [ pfx "10.0.0.0/8" ] in
  let stream = Codec.encode m1 ^ Codec.encode m2 in
  (match Codec.decode_at stream ~pos:0 with
  | Ok (m, consumed) ->
    Alcotest.check msg_testable "first" m1 m;
    (match Codec.decode_at stream ~pos:consumed with
    | Ok (m, c2) ->
      Alcotest.check msg_testable "second" m2 m;
      Alcotest.(check int) "consumed all" (String.length stream) (consumed + c2)
    | Error _ -> Alcotest.fail "second decode failed")
  | Error _ -> Alcotest.fail "first decode failed")

let test_required_length () =
  let w = Codec.encode (Msg.open_msg ~asn:(asn 1) ~bgp_id:(ip "1.1.1.1") ()) in
  (match Codec.required_length w ~pos:0 ~avail:10 with
  | Ok None -> ()
  | _ -> Alcotest.fail "partial header should be None");
  (match Codec.required_length w ~pos:0 ~avail:19 with
  | Ok (Some n) -> Alcotest.(check int) "full length" (String.length w) n
  | _ -> Alcotest.fail "header should yield length");
  let bad = set_byte w 0 0 in
  match Codec.required_length bad ~pos:0 ~avail:19 with
  | Error (Msg.Message_header_error Msg.Connection_not_synchronized) -> ()
  | _ -> Alcotest.fail "bad marker must error"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_ipv4 = QCheck2.Gen.map Ipv4.of_int (QCheck2.Gen.int_range 1 0xFFFF_FFFF)
let gen_prefix =
  QCheck2.Gen.map2 (fun a l -> Prefix.make a l) gen_ipv4 (QCheck2.Gen.int_range 0 32)

let gen_asn = QCheck2.Gen.map Asn.of_int (QCheck2.Gen.int_range 1 65535)

let gen_seg =
  QCheck2.Gen.(
    bind bool (fun is_set ->
        map
          (fun l -> if is_set then As_path.Set l else As_path.Seq l)
          (list_size (int_range 1 6) gen_asn)))

let gen_attrs =
  QCheck2.Gen.(
    let* segs = list_size (int_range 0 3) gen_seg in
    let* origin = oneofl [ A.Igp; A.Egp; A.Incomplete ] in
    let* med = option (int_range 0 1000000) in
    let* lp = option (int_range 0 1000000) in
    let* atomic = bool in
    let* aggr = option (pair gen_asn gen_ipv4) in
    let* ncomm = int_range 0 4 in
    let* comm_raw = list_size (return ncomm) (int_range 0 0xFFFF_FFFF) in
    let* nh = gen_ipv4 in
    let* oid = option gen_ipv4 in
    let* ncl = int_range 0 3 in
    let* cl = list_size (return ncl) gen_ipv4 in
    return
      (A.make ~origin ?med ?local_pref:lp ~atomic_aggregate:atomic ?aggregator:aggr
         ~communities:(List.map Community.of_int32_value comm_raw)
         ?originator_id:oid ~cluster_list:cl
         ~as_path:(As_path.of_segments segs) ~next_hop:nh ()))

let gen_update =
  QCheck2.Gen.(
    let* withdrawn = list_size (int_range 0 20) gen_prefix in
    let* nlri = list_size (int_range 0 20) gen_prefix in
    let* a = gen_attrs in
    let attrs = if nlri = [] then None else Some (A.Interned.intern a) in
    return (Msg.Update { Msg.withdrawn; attrs; nlri }))

let update_eq a b =
  match a, b with
  | Msg.Update x, Msg.Update y ->
    List.equal Prefix.equal x.Msg.withdrawn y.Msg.withdrawn
    && List.equal Prefix.equal x.Msg.nlri y.Msg.nlri
    && Option.equal A.Interned.equal x.Msg.attrs y.Msg.attrs
  | _ -> false

let prop_update_roundtrip =
  QCheck2.Test.make ~name:"update encode/decode roundtrip" ~count:500 gen_update
    (fun m ->
      match Codec.decode (Codec.encode m) with
      | Ok m' -> update_eq m m'
      | Error _ -> false)

let prop_open_roundtrip =
  QCheck2.Test.make ~name:"open encode/decode roundtrip" ~count:500
    QCheck2.Gen.(
      let* a = gen_asn in
      let* hold = oneof [ return 0; int_range 3 65535 ] in
      let* id = gen_ipv4 in
      return (Msg.open_msg ~hold_time:hold ~asn:a ~bgp_id:id ()))
    (fun m ->
      match Codec.decode (Codec.encode m) with Ok m' -> m = m' | Error _ -> false)

let prop_encoded_size_consistent =
  QCheck2.Test.make ~name:"encoded_size matches encode, within bounds" ~count:300
    gen_update (fun m ->
      let w = Codec.encode m in
      Codec.encoded_size m = String.length w
      && String.length w >= Msg.header_len
      && String.length w <= Msg.max_len
      && ((Char.code w.[16] lsl 8) lor Char.code w.[17]) = String.length w)

let prop_corrupt_never_panics =
  (* Any single-byte corruption either still decodes or yields a typed
     error — never an exception. *)
  QCheck2.Test.make ~name:"single-byte corruption yields Ok or typed error"
    ~count:500
    QCheck2.Gen.(pair gen_update (pair small_nat (int_range 0 255)))
    (fun (m, (pos, v)) ->
      let w = Codec.encode m in
      let pos = pos mod String.length w in
      let b = Bytes.of_string w in
      Bytes.set b pos (Char.chr v);
      match Codec.decode (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let prop_multi_corrupt_never_panics =
  (* Multi-byte corruption: up to 8 random flips on one encoding.  The
     decoder must still return Ok or a typed error — in particular no
     Invalid_argument escaping from out-of-bounds reads. *)
  QCheck2.Test.make ~name:"multi-byte corruption yields Ok or typed error"
    ~count:500
    QCheck2.Gen.(
      pair gen_update (list_size (int_range 1 8) (pair small_nat (int_range 0 255))))
    (fun (m, flips) ->
      let b = Bytes.of_string (Codec.encode m) in
      List.iter
        (fun (pos, v) -> Bytes.set b (pos mod Bytes.length b) (Char.chr v))
        flips;
      match Codec.decode (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let prop_truncation_never_panics =
  (* Length-fixed truncation (the fault injector's second mutation):
     cut the tail, rewrite the header length so the frame is complete.
     Every cut point must decode or produce a well-formed Msg.error. *)
  QCheck2.Test.make ~name:"length-fixed truncation yields Ok or typed error"
    ~count:500
    QCheck2.Gen.(pair gen_update small_nat)
    (fun (m, cut) ->
      let w = Codec.encode m in
      let n = String.length w in
      if n <= Msg.header_len then true
      else begin
        let total = Msg.header_len + (cut mod (n - Msg.header_len)) in
        let b = Bytes.sub (Bytes.unsafe_of_string w) 0 total in
        Bytes.set b 16 (Char.chr ((total lsr 8) land 0xFF));
        Bytes.set b 17 (Char.chr (total land 0xFF));
        match Codec.decode (Bytes.to_string b) with
        | Ok _ -> true
        | Error e ->
          (* the error must itself be printable and carry a valid
             RFC 4271 code pair *)
          let c, _ = Msg.error_code e in
          ignore (Format.asprintf "%a" Msg.pp_error e);
          c >= 1 && c <= 6
      end)

let prop_raw_truncation_never_panics =
  (* Raw truncation without the length fixup: the streaming entry
     points must either ask for more bytes or return a typed error. *)
  QCheck2.Test.make ~name:"raw truncation never raises" ~count:500
    QCheck2.Gen.(pair gen_update small_nat)
    (fun (m, keep) ->
      let w = Codec.encode m in
      let keep = keep mod (String.length w + 1) in
      let cut = String.sub w 0 keep in
      (match Codec.required_length cut ~pos:0 ~avail:keep with
      | Ok _ | Error _ -> ());
      match Codec.decode cut with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* The one-pass UPDATE encoder against the buffer-based oracle          *)
(* ------------------------------------------------------------------ *)

(* [f ()]'s result, or the message of the [Invalid_argument] it
   raised. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* [Codec.encode_opt] and [Codec.encode] agree with the oracle: the
   same bytes, or [None] and the size error, or the same field error. *)
let agrees_with_oracle u =
  let m = Msg.Update u in
  let want = outcome (fun () -> Update_oracle.encode_opt u) in
  outcome (fun () -> Codec.encode_opt m) = want
  &&
  match want, outcome (fun () -> Codec.encode m) with
  | Ok (Some w), Ok w' -> String.equal w w'
  | Ok None, Error msg ->
    String.starts_with ~prefix:"Codec.encode: UPDATE message of" msg
  | Error e, Error e' -> String.equal e e'
  | _ -> false

(* Attribute sets with every optional attribute, some of them past 255
   bytes (Extended Length): up to 100 communities, 70 cluster ids or
   three 200-AS segments. *)
let gen_wide_attrs =
  QCheck2.Gen.(
    let* a = gen_attrs in
    let* wide = bool in
    if not wide then return a
    else
      let* comm = list_size (int_range 0 100) (int_range 0 0xFFFF_FFFF) in
      let* cl = list_size (int_range 0 70) gen_ipv4 in
      let* segs =
        list_size (int_range 1 3)
          (map (fun l -> As_path.Seq l) (list_size (int_range 1 200) gen_asn))
      in
      return
        (A.make ~origin:a.A.origin ?med:a.A.med ?local_pref:a.A.local_pref
           ~atomic_aggregate:a.A.atomic_aggregate ?aggregator:a.A.aggregator
           ~communities:(List.map Community.of_int32_value comm)
           ?originator_id:a.A.originator_id ~cluster_list:cl
           ~as_path:(As_path.of_segments segs) ~next_hop:a.A.next_hop ()))

(* Withdraw-only, attributes without NLRI, announcements, and mixed
   withdraw + NLRI; up to 900 withdrawn prefixes, so some messages pass
   4096 bytes. *)
let gen_oracle_update =
  QCheck2.Gen.(
    let prefixes = list_size (int_range 0 900) gen_prefix in
    let* withdrawn = prefixes and* nlri = prefixes and* a = gen_wide_attrs in
    let* shape = int_range 0 3 in
    let h = Some (A.Interned.intern a) in
    return
      (match shape with
      | 0 -> { Msg.withdrawn; attrs = None; nlri = [] }
      | 1 -> { Msg.withdrawn = []; attrs = h; nlri = [] }
      | 2 -> { Msg.withdrawn = []; attrs = h; nlri }
      | _ -> { Msg.withdrawn; attrs = h; nlri }))

(* Encoded twice: the first encode of a handle fills its cache, the
   second reads it. *)
let prop_encode_matches_oracle =
  QCheck2.Test.make ~name:"one-pass UPDATE encoder = buffer oracle"
    ~count:500 gen_oracle_update (fun u ->
      agrees_with_oracle u && agrees_with_oracle u)

(* [n] distinct /24s. *)
let slash24s n = List.init n (fun i -> Prefix.make (Ipv4.of_int (0x0A000000 + (i lsl 8))) 24)

let check_size_boundary what u ~total =
  let m = Msg.Update u in
  Alcotest.(check bool) (what ^ ": agrees with the oracle") true
    (agrees_with_oracle u);
  if total <= Msg.max_len then begin
    let w = Codec.encode m in
    Alcotest.(check int) (what ^ ": length") total (String.length w);
    Alcotest.(check (option string)) (what ^ ": encode_opt") (Some w)
      (Codec.encode_opt m)
  end
  else begin
    Alcotest.(check (option string)) (what ^ ": encode_opt") None
      (Codec.encode_opt m);
    match Codec.encode m with
    | _ -> Alcotest.failf "%s: encode accepted %d bytes" what total
    | exception Invalid_argument _ -> ()
  end

(* 4096 bytes encode and 4097 do not, for an announcement (18 bytes of
   attributes, /24s and one /16 of NLRI) and for a withdrawal. *)
let test_size_boundary () =
  let h = A.Interned.intern (attrs [ 65001 ]) in
  let ann nlri = { Msg.withdrawn = []; attrs = Some h; nlri } in
  let wd withdrawn = { Msg.withdrawn; attrs = None; nlri = [] } in
  (* 19 + 4 + 18 + 4 * 1013 + 3 = 4096 *)
  check_size_boundary "announce 4096"
    (ann (pfx "192.168.0.0/16" :: slash24s 1013)) ~total:4096;
  check_size_boundary "announce 4097" (ann (slash24s 1014)) ~total:4097;
  (* 19 + 4 + 4 * 1018 + 1 = 4096 *)
  check_size_boundary "withdraw 4096"
    (wd (pfx "0.0.0.0/0" :: slash24s 1018)) ~total:4096;
  check_size_boundary "withdraw 4097"
    (wd (pfx "10.0.0.0/16" :: slash24s 1018)) ~total:4097

(* The cache lives on the handle: a handle encoded before
   [Interned.clear] encodes the same bytes after it, and the handle a
   fresh intern returns starts with an empty cache. *)
let test_encode_across_clear () =
  let a =
    A.make ~med:7 ~communities:[ Community.no_export ]
      ~as_path:(As_path.of_asns [ asn 65001; asn 65002 ])
      ~next_hop:(ip "192.0.2.9") ()
  in
  let h = A.Interned.intern a in
  let u h = { Msg.withdrawn = []; attrs = Some h; nlri = [ pfx "10.0.0.0/8" ] } in
  Alcotest.(check string) "empty before the first encode" ""
    (A.Interned.wire_image h);
  let before = Codec.encode (Msg.Update (u h)) in
  Alcotest.(check bool) "filled by the first encode" true
    (A.Interned.wire_image h <> "");
  A.Interned.clear ();
  Alcotest.(check string) "stale handle, same bytes" before
    (Codec.encode (Msg.Update (u h)));
  let h' = A.Interned.intern a in
  Alcotest.(check bool) "a new handle after clear" true
    (A.Interned.id h <> A.Interned.id h');
  Alcotest.(check string) "new handle starts empty" ""
    (A.Interned.wire_image h');
  Alcotest.(check string) "new handle, same bytes" before
    (Codec.encode (Msg.Update (u h')));
  Alcotest.(check (option string)) "both match the oracle" (Some before)
    (Update_oracle.encode_opt (u h'))

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* An AS_SEQUENCE path of [hops] ASes, in segments of at most 255. *)
let long_path hops =
  As_path.of_segments
    (List.init ((hops + 254) / 255) (fun s ->
         As_path.Seq
           (List.init (min 255 (hops - (255 * s))) (fun i ->
                asn (1 + (((255 * s) + i) mod 65000))))))

(* Every message holds at most [max_count] prefixes, every message
   holding more than one prefix fits the wire (a single prefix may not:
   paths past ~2000 hops leave no room beside the attributes), and the
   messages' prefixes concatenate to the input. *)
let prop_updates_pack =
  QCheck2.Test.make ~name:"updates packs in order, within count and size"
    ~count:200
    QCheck2.Gen.(
      let* prefixes = list_size (int_range 0 2500) gen_prefix in
      let* max_count = option (int_range 1 1500) in
      let* attrs = option (pair gen_attrs (int_range 0 2200)) in
      return (prefixes, max_count, attrs))
    (fun (prefixes, max_count, attrs) ->
      let attrs =
        Option.map
          (fun (a, hops) ->
            A.Interned.intern { a with A.as_path = long_path hops })
          attrs
      in
      let msgs = Codec.updates ?max_count attrs prefixes in
      let carried = function
        | Msg.Update u -> u.Msg.withdrawn @ u.Msg.nlri
        | _ -> []
      in
      List.for_all
        (fun m ->
          let n = List.length (carried m) in
          n >= 1
          && n <= Option.value max_count ~default:max_int
          && (n = 1 || Codec.encode_opt m <> None))
        msgs
      && List.equal Prefix.equal (List.concat_map carried msgs) prefixes)

(* Groups come in arena-id order whatever order the routes arrive in,
   each group's prefixes in input order. *)
let test_group_by_attrs_order () =
  let a = A.Interned.intern (attrs [ 65101; 65102 ])
  and b = A.Interned.intern (attrs [ 65103 ]) in
  let lo, hi = if A.Interned.compare_id a b < 0 then (a, b) else (b, a) in
  let p = List.map pfx [ "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "10.3.0.0/24" ] in
  let groups =
    Codec.group_by_attrs (List.combine p [ hi; lo; hi; lo ])
  in
  Alcotest.(check (list int)) "ids ascending"
    [ A.Interned.id lo; A.Interned.id hi ]
    (List.map (fun (h, _) -> A.Interned.id h) groups);
  Alcotest.(check (list string)) "prefixes in input order"
    [ "10.1.0.0/16"; "10.3.0.0/24"; "10.0.0.0/8"; "10.2.0.0/16" ]
    (List.concat_map (fun (_, ps) -> List.map Prefix.to_string ps) groups)

(* Each run of consecutive routes sharing a handle packs on its own, in
   input order: a run splits at [max_count] and at the wire limit, and
   equal handles that are not adjacent never share a message. *)
let test_updates_of_runs () =
  let a = A.Interned.intern (attrs [ 65101; 65102 ])
  and b = A.Interned.intern (attrs [ 65103 ]) in
  let host i = Prefix.make (Ipv4.of_int (0x0A000000 + i)) 32 in
  let summary msgs =
    List.map
      (function
        | Msg.Update { Msg.attrs = Some h; nlri; _ } ->
          (A.Interned.id h, List.length nlri, Prefix.to_string (List.hd nlri))
        | _ -> Alcotest.fail "not an announcement")
      msgs
  in
  let routes =
    List.mapi (fun i h -> (host i, h)) [ a; a; a; b; a ]
  in
  Alcotest.(check (list (triple int int string)))
    "runs in order, split at max_count, never merged"
    [ (A.Interned.id a, 2, "10.0.0.0/32"); (A.Interned.id a, 1, "10.0.0.2/32");
      (A.Interned.id b, 1, "10.0.0.3/32"); (A.Interned.id a, 1, "10.0.0.4/32") ]
    (summary (Codec.updates_of_runs ~max_count:2 routes));
  (* 1200 /32s take 6000 bytes of NLRI: more than one message holds. *)
  let big = List.init 1200 (fun i -> (host i, a)) in
  let msgs = Codec.updates_of_runs ~max_count:1200 big in
  Alcotest.(check int) "split at the wire limit" 2 (List.length msgs);
  Alcotest.(check bool) "each message fits" true
    (List.for_all
       (fun m ->
         match Codec.encode_opt m with
         | Some w -> String.length w <= Msg.max_len
         | None -> false)
       msgs);
  Alcotest.(check bool) "prefixes in input order" true
    (List.equal Prefix.equal
       (List.concat_map
          (function Msg.Update u -> u.Msg.nlri | _ -> [])
          msgs)
       (List.map fst big))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_wire"
    [ ( "wire images",
        [ Alcotest.test_case "keepalive" `Quick test_keepalive_bytes;
          Alcotest.test_case "open" `Quick test_open_bytes;
          Alcotest.test_case "notification" `Quick test_notification_bytes;
          Alcotest.test_case "update nlri" `Quick test_update_nlri_bytes
        ] );
      ( "roundtrips",
        [ Alcotest.test_case "open with capabilities" `Quick test_roundtrip_open;
          Alcotest.test_case "update all attributes" `Quick test_roundtrip_update_full;
          Alcotest.test_case "withdraw only" `Quick test_roundtrip_withdraw_only;
          Alcotest.test_case "keepalive/notification" `Quick
            test_roundtrip_keepalive_notification;
          Alcotest.test_case "500-prefix update" `Quick test_roundtrip_big_update;
          Alcotest.test_case "route refresh" `Quick test_route_refresh
        ] );
      ( "malformed",
        [ Alcotest.test_case "bad marker" `Quick test_bad_marker;
          Alcotest.test_case "bad length" `Quick test_bad_length;
          Alcotest.test_case "bad type" `Quick test_bad_type;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "bad open fields" `Quick test_bad_open_fields;
          Alcotest.test_case "nlri without attrs" `Quick test_bad_update;
          Alcotest.test_case "prefix length 33" `Quick test_bad_prefix_length;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "declared length reported" `Quick
            test_declared_length_reported;
          Alcotest.test_case "truncated attribute bodies" `Quick
            test_truncated_attr_bodies;
          Alcotest.test_case "truncated nlri body" `Quick test_truncated_nlri_body
        ] );
      ( "encoder",
        [ Alcotest.test_case "4096/4097-byte boundary" `Quick test_size_boundary;
          Alcotest.test_case "handle encoded across clear" `Quick
            test_encode_across_clear;
          QCheck_alcotest.to_alcotest prop_encode_matches_oracle
        ] );
      ( "framing",
        [ Alcotest.test_case "decode_at stream" `Quick test_decode_at_stream;
          Alcotest.test_case "required_length" `Quick test_required_length
        ] );
      ( "packing",
        Alcotest.test_case "group_by_attrs id order" `Quick
          test_group_by_attrs_order
        :: Alcotest.test_case "updates_of_runs keeps runs apart" `Quick
             test_updates_of_runs
        :: List.map QCheck_alcotest.to_alcotest [ prop_updates_pack ] );
      qsuite "properties"
        [ prop_update_roundtrip; prop_open_roundtrip; prop_encoded_size_consistent;
          prop_corrupt_never_panics; prop_multi_corrupt_never_panics;
          prop_truncation_never_panics; prop_raw_truncation_never_panics ]
    ]
