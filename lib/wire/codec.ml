module A = Bgp_route.Attrs
module P = Bgp_addr.Prefix

let attr_origin = 1
let attr_as_path = 2
let attr_next_hop = 3
let attr_med = 4
let attr_local_pref = 5
let attr_atomic_aggregate = 6
let attr_aggregator = 7
let attr_community = 8
let attr_originator_id = 9 (* RFC 4456 *)
let attr_cluster_list = 10 (* RFC 4456 *)
let flag_optional = 0x80
let flag_transitive = 0x40
let flag_extended = 0x10

let type_open = 1
let type_update = 2
let type_notification = 3
let type_keepalive = 4
let type_route_refresh = 5 (* RFC 2918 *)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let u16 b v =
  u8 b (v lsr 8);
  u8 b v

let u32 b v =
  u16 b (v lsr 16);
  u16 b (v land 0xFFFF)

let add_ipv4 b a = u32 b (Bgp_addr.Ipv4.to_int a)

let add_prefix b p =
  (* RFC 4271 §4.3: length in bits, then ceil(len/8) address octets. *)
  let len = P.len p in
  u8 b len;
  let a = Bgp_addr.Ipv4.to_int (P.addr p) in
  for i = 0 to P.wire_octets p - 1 do
    u8 b ((a lsr (24 - (8 * i))) land 0xFF)
  done

let encode_capability b = function
  | Msg.Multiprotocol (afi, safi) ->
    u8 b 1;
    u8 b 4;
    u16 b afi;
    u8 b 0;
    u8 b safi
  | Msg.Route_refresh ->
    u8 b 2;
    u8 b 0
  | Msg.Unknown_capability (code, data) ->
    u8 b code;
    u8 b (String.length data);
    Buffer.add_string b data

let encode_opt_param b = function
  | Msg.Capability cap ->
    let inner = Buffer.create 8 in
    encode_capability inner cap;
    u8 b 2 (* param type: capability (RFC 3392) *);
    u8 b (Buffer.length inner);
    Buffer.add_buffer b inner
  | Msg.Unknown_param (code, data) ->
    u8 b code;
    u8 b (String.length data);
    Buffer.add_string b data

(* An attribute body is built in a scratch buffer first so the length
   field (and the Extended Length flag it may force) can be emitted. *)
let add_attr b ~flags ~code body =
  let len = Buffer.length body in
  if len > 0xFFFF then invalid_arg "Codec: attribute too long";
  let flags = if len > 0xFF then flags lor flag_extended else flags in
  u8 b flags;
  u8 b code;
  if flags land flag_extended <> 0 then u16 b len else u8 b len;
  Buffer.add_buffer b body

let encode_as_path ?(as4 = false) body segs =
  let add_asn = if as4 then u32 else u16 in
  let add_seg tag asns =
    let n = List.length asns in
    if n = 0 || n > 255 then invalid_arg "Codec: bad AS_PATH segment";
    u8 body tag;
    u8 body n;
    List.iter (fun a -> add_asn body (Bgp_route.Asn.to_int a)) asns
  in
  List.iter
    (function
      | Bgp_route.As_path.Set asns -> add_seg 1 asns
      | Bgp_route.As_path.Seq asns -> add_seg 2 asns)
    (Bgp_route.As_path.segments segs)

let encode_attrs ?(as4 = false) b (attrs : A.t) =
  let scratch = Buffer.create 64 in
  let emit ~flags ~code fill =
    Buffer.clear scratch;
    fill scratch;
    add_attr b ~flags ~code scratch
  in
  emit ~flags:flag_transitive ~code:attr_origin (fun s ->
      u8 s (A.origin_to_int attrs.A.origin));
  emit ~flags:flag_transitive ~code:attr_as_path (fun s ->
      encode_as_path ~as4 s attrs.A.as_path);
  emit ~flags:flag_transitive ~code:attr_next_hop (fun s ->
      add_ipv4 s attrs.A.next_hop);
  Option.iter
    (fun med -> emit ~flags:flag_optional ~code:attr_med (fun s -> u32 s med))
    attrs.A.med;
  Option.iter
    (fun lp ->
      emit ~flags:flag_transitive ~code:attr_local_pref (fun s -> u32 s lp))
    attrs.A.local_pref;
  if attrs.A.atomic_aggregate then
    emit ~flags:flag_transitive ~code:attr_atomic_aggregate (fun _ -> ());
  Option.iter
    (fun (asn, addr) ->
      emit ~flags:(flag_optional lor flag_transitive) ~code:attr_aggregator
        (fun s ->
          (if as4 then u32 else u16) s (Bgp_route.Asn.to_int asn);
          add_ipv4 s addr))
    attrs.A.aggregator;
  (match attrs.A.communities with
  | [] -> ()
  | cs ->
    emit ~flags:(flag_optional lor flag_transitive) ~code:attr_community
      (fun s -> List.iter (fun c -> u32 s (Bgp_route.Community.to_int32_value c)) cs));
  Option.iter
    (fun oid ->
      emit ~flags:flag_optional ~code:attr_originator_id (fun s -> add_ipv4 s oid))
    attrs.A.originator_id;
  (match attrs.A.cluster_list with
  | [] -> ()
  | cl ->
    emit ~flags:flag_optional ~code:attr_cluster_list (fun s ->
        List.iter (add_ipv4 s) cl))

let encode_body b = function
  | Msg.Open o ->
    if o.Msg.opn_hold_time < 0 || o.Msg.opn_hold_time > 0xFFFF then
      invalid_arg "Codec: hold time out of range";
    u8 b o.Msg.opn_version;
    u16 b (Bgp_route.Asn.to_int o.Msg.opn_asn);
    u16 b o.Msg.opn_hold_time;
    add_ipv4 b o.Msg.opn_bgp_id;
    let params = Buffer.create 16 in
    List.iter (encode_opt_param params) o.Msg.opn_params;
    if Buffer.length params > 0xFF then
      invalid_arg "Codec: optional parameters too long";
    u8 b (Buffer.length params);
    Buffer.add_buffer b params
  | Msg.Update u ->
    let withdrawn = Buffer.create 64 in
    List.iter (add_prefix withdrawn) u.Msg.withdrawn;
    if Buffer.length withdrawn > 0xFFFF then
      invalid_arg "Codec: withdrawn routes too long";
    u16 b (Buffer.length withdrawn);
    Buffer.add_buffer b withdrawn;
    let attrs = Buffer.create 64 in
    Option.iter
      (fun h -> encode_attrs attrs (A.Interned.value h))
      u.Msg.attrs;
    if Buffer.length attrs > 0xFFFF then
      invalid_arg "Codec: path attributes too long";
    u16 b (Buffer.length attrs);
    Buffer.add_buffer b attrs;
    List.iter (add_prefix b) u.Msg.nlri
  | Msg.Keepalive -> ()
  | Msg.Notification err ->
    let code, sub = Msg.error_code err in
    u8 b code;
    u8 b sub
  | Msg.Route_refresh (afi, safi) ->
    u16 b afi;
    u8 b 0;
    u8 b safi

(* Header plus a body already checked to fit. *)
let frame msg body =
  let total = Msg.header_len + Buffer.length body in
  let b = Buffer.create total in
  for _ = 1 to 16 do
    Buffer.add_char b '\xFF'
  done;
  u16 b total;
  u8 b
    (match msg with
    | Msg.Open _ -> type_open
    | Msg.Update _ -> type_update
    | Msg.Notification _ -> type_notification
    | Msg.Keepalive -> type_keepalive
    | Msg.Route_refresh _ -> type_route_refresh);
  Buffer.add_buffer b body;
  Buffer.contents b

let encode_opt msg =
  let body = Buffer.create 64 in
  encode_body body msg;
  if Msg.header_len + Buffer.length body > Msg.max_len then None
  else Some (frame msg body)

let encode msg =
  let body = Buffer.create 64 in
  encode_body body msg;
  let total = Msg.header_len + Buffer.length body in
  if total > Msg.max_len then
    invalid_arg
      (Printf.sprintf "Codec.encode: %s message of %d bytes exceeds %d"
         (Msg.kind_name msg) total Msg.max_len);
  frame msg body

let encoded_size msg = String.length (encode msg)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* RFC 4271 section 4.3: besides its attribute section, an UPDATE spends
   the 19-byte header and two 2-byte length fields, plus one length
   octet and the address octets per prefix. *)
let update_room = Msg.max_len - Msg.header_len - 4
let prefix_bytes p = 1 + P.wire_octets p

(* Split [prefixes], in order, into runs of at most [max_count] prefixes
   and [room] wire bytes.  A prefix that exceeds [room] on its own still
   gets a run of its own. *)
let chunks ~max_count ~room prefixes =
  let rec go runs run count bytes = function
    | [] -> List.rev (if run = [] then runs else List.rev run :: runs)
    | p :: rest ->
      let b = prefix_bytes p in
      if run <> [] && (count >= max_count || bytes + b > room) then
        go (List.rev run :: runs) [ p ] 1 b rest
      else go runs (p :: run) (count + 1) (bytes + b) rest
  in
  go [] [] 0 0 prefixes

let updates ?(max_count = max_int) attrs prefixes =
  if max_count < 1 then invalid_arg "Codec.updates: max_count must be >= 1";
  match attrs with
  | None ->
    List.map Msg.withdrawal (chunks ~max_count ~room:update_room prefixes)
  | Some h ->
    let b = Buffer.create 64 in
    encode_attrs b (A.Interned.value h);
    List.map
      (Msg.announcement_interned h)
      (chunks ~max_count ~room:(update_room - Buffer.length b) prefixes)

let updates_of_runs ~max_count routes =
  (* Runs newest first, each run's prefixes reversed. *)
  let runs =
    List.fold_left
      (fun runs (prefix, h) ->
        match runs with
        | (cur, prefixes) :: rest when A.Interned.equal cur h ->
          (cur, prefix :: prefixes) :: rest
        | _ -> (h, [ prefix ]) :: runs)
      [] routes
  in
  List.concat_map
    (fun (h, prefixes) -> updates ~max_count (Some h) (List.rev prefixes))
    (List.rev runs)

let group_by_attrs routes =
  let groups = A.Interned.Tbl.create 16 in
  (* Walk the routes backwards: consing then leaves each group in input
     order. *)
  List.iter
    (fun (prefix, h) ->
      let prefixes =
        Option.value ~default:[] (A.Interned.Tbl.find_opt groups h)
      in
      A.Interned.Tbl.replace groups h (prefix :: prefixes))
    (List.rev routes);
  A.Interned.Tbl.fold (fun h prefixes acc -> (h, prefixes) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> A.Interned.compare_id a b)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Fail of Msg.error

let fail e = raise (Fail e)

(* [declared] is the length field of the enclosing header, threaded
   through so truncation errors can report the length the sender
   claimed (RFC 4271 §6.1: the erroneous Length field goes in the
   NOTIFICATION data) rather than a meaningless 0. *)
type reader = { buf : string; mutable pos : int; limit : int; declared : int }

let ru8 r =
  if r.pos >= r.limit then
    fail (Msg.Message_header_error (Msg.Bad_message_length r.declared));
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru16 r =
  let hi = ru8 r in
  (hi lsl 8) lor ru8 r

let ru32 r =
  let hi = ru16 r in
  (hi lsl 16) lor ru16 r

let r_ipv4 r = Bgp_addr.Ipv4.of_int (ru32 r)

let r_prefix r stop =
  let len = ru8 r in
  if len > 32 then fail (Msg.Update_message_error Msg.Invalid_network_field);
  let octets = (len + 7) / 8 in
  (* A prefix whose address octets run past the enclosing field is a
     malformed NLRI, not a header-length problem. *)
  if r.pos + octets > stop then
    fail (Msg.Update_message_error Msg.Invalid_network_field);
  let a = ref 0 in
  for i = 0 to octets - 1 do
    a := !a lor (ru8 r lsl (24 - (8 * i)))
  done;
  (* §6.3: bits beyond the prefix length are "irrelevant"; we apply the
     stricter check used by most implementations and reject them, which
     the property tests rely on for canonical roundtrips. *)
  let addr = Bgp_addr.Ipv4.of_int !a in
  if not (Bgp_addr.Ipv4.equal (Bgp_addr.Ipv4.apply_mask addr len) addr) then
    fail (Msg.Update_message_error Msg.Invalid_network_field);
  P.make addr len

let r_prefixes_until r stop =
  let acc = ref [] in
  while r.pos < stop do
    acc := r_prefix r stop :: !acc
  done;
  if r.pos <> stop then fail (Msg.Update_message_error Msg.Invalid_network_field);
  List.rev !acc

let decode_capability r stop =
  let code = ru8 r in
  let len = ru8 r in
  if r.pos + len > stop then
    fail (Msg.Open_message_error Msg.Unsupported_optional_parameter);
  match code with
  | 1 when len = 4 ->
    let afi = ru16 r in
    let _res = ru8 r in
    let safi = ru8 r in
    Msg.Multiprotocol (afi, safi)
  | 2 when len = 0 -> Msg.Route_refresh
  | _ ->
    let data = String.sub r.buf r.pos len in
    r.pos <- r.pos + len;
    Msg.Unknown_capability (code, data)

let decode_opt_params r =
  let total = ru8 r in
  let stop = r.pos + total in
  if stop > r.limit then
    fail (Msg.Message_header_error (Msg.Bad_message_length total));
  let acc = ref [] in
  while r.pos < stop do
    let ptype = ru8 r in
    let plen = ru8 r in
    if r.pos + plen > stop then
      fail (Msg.Open_message_error Msg.Unsupported_optional_parameter);
    let pstop = r.pos + plen in
    (match ptype with
    | 2 ->
      while r.pos < pstop do
        acc := Msg.Capability (decode_capability r pstop) :: !acc
      done
    | _ ->
      let data = String.sub r.buf r.pos plen in
      r.pos <- pstop;
      acc := Msg.Unknown_param (ptype, data) :: !acc);
    if r.pos <> pstop then
      fail (Msg.Open_message_error Msg.Unsupported_optional_parameter)
  done;
  List.rev !acc

let decode_open r =
  let v = ru8 r in
  if v <> Msg.version then fail (Msg.Open_message_error (Msg.Unsupported_version v));
  let asn_raw = ru16 r in
  let asn =
    match Bgp_route.Asn.of_int_opt asn_raw with
    | Some a when not (Bgp_route.Asn.equal a Bgp_route.Asn.reserved) -> a
    | _ -> fail (Msg.Open_message_error Msg.Bad_peer_as)
  in
  let hold = ru16 r in
  if hold <> 0 && hold < Msg.hold_time_min then
    fail (Msg.Open_message_error Msg.Unacceptable_hold_time);
  let bgp_id = r_ipv4 r in
  if Bgp_addr.Ipv4.equal bgp_id Bgp_addr.Ipv4.zero then
    fail (Msg.Open_message_error Msg.Bad_bgp_identifier);
  let params = decode_opt_params r in
  Msg.Open
    { Msg.opn_version = v; opn_asn = asn; opn_hold_time = hold;
      opn_bgp_id = bgp_id; opn_params = params }

(* 4-octet ASNs (RFC 6793, used by TABLE_DUMP_V2 attribute blobs) are
   clamped to AS_TRANS when they exceed the 16-bit [Asn] domain —
   exactly what a NEW-to-OLD speaker translation would put on the
   wire. *)
let as_trans = Bgp_route.Asn.of_int 23456

let r_asn4 r =
  let v = ru32 r in
  match Bgp_route.Asn.of_int_opt v with Some a -> a | None -> as_trans

let decode_as_path ?(as4 = false) r stop =
  let asn_octets = if as4 then 4 else 2 in
  let r_asn = if as4 then r_asn4 else fun r -> Bgp_route.Asn.of_int (ru16 r) in
  let segs = ref [] in
  while r.pos < stop do
    let tag = ru8 r in
    let n = ru8 r in
    if n = 0 || r.pos + (asn_octets * n) > stop then
      fail (Msg.Update_message_error Msg.Malformed_as_path);
    let asns = List.init n (fun _ -> r_asn r) in
    match tag with
    | 1 -> segs := Bgp_route.As_path.Set asns :: !segs
    | 2 -> segs := Bgp_route.As_path.Seq asns :: !segs
    | _ -> fail (Msg.Update_message_error Msg.Malformed_as_path)
  done;
  Bgp_route.As_path.of_segments (List.rev !segs)

type partial_attrs = {
  mutable p_origin : A.origin option;
  mutable p_as_path : Bgp_route.As_path.t option;
  mutable p_next_hop : Bgp_addr.Ipv4.t option;
  mutable p_med : int option;
  mutable p_local_pref : int option;
  mutable p_atomic : bool;
  mutable p_aggregator : (Bgp_route.Asn.t * Bgp_addr.Ipv4.t) option;
  mutable p_communities : Bgp_route.Community.t list;
  mutable p_originator_id : Bgp_addr.Ipv4.t option;
  mutable p_cluster_list : Bgp_addr.Ipv4.t list;
}

let decode_one_attr ?(as4 = false) r stop acc =
  let flags = ru8 r in
  (* An attribute header cut off by the Total Path Attribute Length is
     an UPDATE-level malformation (RFC 4271 §6.3), not a header error:
     the header itself framed fine. *)
  if r.pos >= stop then
    fail (Msg.Update_message_error Msg.Malformed_attribute_list);
  let code = ru8 r in
  let len_octets = if flags land flag_extended <> 0 then 2 else 1 in
  if r.pos + len_octets > stop then
    fail (Msg.Update_message_error (Msg.Attribute_length_error code));
  let len = if flags land flag_extended <> 0 then ru16 r else ru8 r in
  if r.pos + len > stop then
    fail (Msg.Update_message_error (Msg.Attribute_length_error code));
  let astop = r.pos + len in
  let check_flags ~want_optional ~want_transitive =
    let optional = flags land flag_optional <> 0 in
    let transitive = flags land flag_transitive <> 0 in
    if optional <> want_optional || (not optional && transitive <> want_transitive)
    then fail (Msg.Update_message_error (Msg.Attribute_flags_error code))
  in
  let check_len want =
    if len <> want then
      fail (Msg.Update_message_error (Msg.Attribute_length_error code))
  in
  (match code with
  | c when c = attr_origin ->
    check_flags ~want_optional:false ~want_transitive:true;
    check_len 1;
    (match A.origin_of_int (ru8 r) with
    | Some o -> acc.p_origin <- Some o
    | None -> fail (Msg.Update_message_error Msg.Invalid_origin_attribute))
  | c when c = attr_as_path ->
    check_flags ~want_optional:false ~want_transitive:true;
    acc.p_as_path <- Some (decode_as_path ~as4 r astop)
  | c when c = attr_next_hop ->
    check_flags ~want_optional:false ~want_transitive:true;
    check_len 4;
    let nh = r_ipv4 r in
    if Bgp_addr.Ipv4.equal nh Bgp_addr.Ipv4.zero then
      fail (Msg.Update_message_error Msg.Invalid_next_hop_attribute);
    acc.p_next_hop <- Some nh
  | c when c = attr_med ->
    check_flags ~want_optional:true ~want_transitive:false;
    check_len 4;
    acc.p_med <- Some (ru32 r)
  | c when c = attr_local_pref ->
    check_flags ~want_optional:false ~want_transitive:true;
    check_len 4;
    acc.p_local_pref <- Some (ru32 r)
  | c when c = attr_atomic_aggregate ->
    check_flags ~want_optional:false ~want_transitive:true;
    check_len 0;
    acc.p_atomic <- true
  | c when c = attr_aggregator ->
    check_flags ~want_optional:true ~want_transitive:false;
    check_len (if as4 then 8 else 6);
    let asn = if as4 then r_asn4 r else Bgp_route.Asn.of_int (ru16 r) in
    let addr = r_ipv4 r in
    acc.p_aggregator <- Some (asn, addr)
  | c when c = attr_community ->
    check_flags ~want_optional:true ~want_transitive:false;
    if len mod 4 <> 0 then
      fail (Msg.Update_message_error (Msg.Attribute_length_error code));
    let n = len / 4 in
    for _ = 1 to n do
      acc.p_communities <-
        Bgp_route.Community.of_int32_value (ru32 r) :: acc.p_communities
    done
  | c when c = attr_originator_id ->
    check_flags ~want_optional:true ~want_transitive:false;
    check_len 4;
    acc.p_originator_id <- Some (r_ipv4 r)
  | c when c = attr_cluster_list ->
    check_flags ~want_optional:true ~want_transitive:false;
    if len = 0 || len mod 4 <> 0 then
      fail (Msg.Update_message_error (Msg.Attribute_length_error code));
    let n = len / 4 in
    acc.p_cluster_list <- List.init n (fun _ -> r_ipv4 r)
  | c ->
    if flags land flag_optional = 0 then
      fail (Msg.Update_message_error (Msg.Unrecognized_wellknown_attribute c));
    (* Unknown optional attribute: skipped (transitive ones would be
       re-forwarded with Partial set; we do not originate them). *)
    r.pos <- astop);
  if r.pos <> astop then
    fail (Msg.Update_message_error (Msg.Attribute_length_error code))

let decode_attrs_slow ?(as4 = false) r stop ~nlri_present =
  let acc =
    { p_origin = None; p_as_path = None; p_next_hop = None; p_med = None;
      p_local_pref = None; p_atomic = false; p_aggregator = None;
      p_communities = []; p_originator_id = None; p_cluster_list = [] }
  in
  while r.pos < stop do
    decode_one_attr ~as4 r stop acc
  done;
  if r.pos <> stop then fail (Msg.Update_message_error Msg.Malformed_attribute_list);
  match acc.p_origin, acc.p_as_path, acc.p_next_hop with
  | None, None, None when not nlri_present -> None
  | Some origin, Some as_path, Some next_hop ->
    (* [A.make] canonicalizes communities; interning here — once per
       UPDATE — is what lets all the message's NLRI share one handle. *)
    Some
      (A.Interned.intern
         (A.make ~origin ?med:acc.p_med ?local_pref:acc.p_local_pref
            ~atomic_aggregate:acc.p_atomic ?aggregator:acc.p_aggregator
            ~communities:(List.rev acc.p_communities)
            ?originator_id:acc.p_originator_id
            ~cluster_list:acc.p_cluster_list ~as_path ~next_hop ()))
  | None, _, _ ->
    fail (Msg.Update_message_error (Msg.Missing_wellknown_attribute attr_origin))
  | _, None, _ ->
    fail (Msg.Update_message_error (Msg.Missing_wellknown_attribute attr_as_path))
  | _, _, None ->
    fail (Msg.Update_message_error (Msg.Missing_wellknown_attribute attr_next_hop))

(* Zero-copy fast path: hash the raw attribute byte-span before
   materializing anything — a span-cache hit returns the interned
   handle with no intermediate [Attrs.t], no AS-path list, and no
   validation re-run (identical bytes decode identically, so the first
   full decode vouches for every repeat).  Only spans whose decode
   produced a handle are cached: an attribute section of purely
   optional attributes legitimately decodes to [None] or [Some]
   depending on [nlri_present], which the byte-keyed cache cannot
   distinguish. *)
let decode_attrs r stop ~nlri_present =
  if r.pos >= stop then decode_attrs_slow r stop ~nlri_present
  else begin
    let pos0 = r.pos in
    let len = stop - pos0 in
    match A.Interned.find_span r.buf ~pos:pos0 ~len with
    | Some handle ->
      r.pos <- stop;
      Some handle
    | None ->
      let result = decode_attrs_slow r stop ~nlri_present in
      (match result with
      | Some handle -> A.Interned.add_span r.buf ~pos:pos0 ~len handle
      | None -> ());
      result
  end

let decode_update r =
  let wlen = ru16 r in
  if r.pos + wlen > r.limit then
    fail (Msg.Update_message_error Msg.Malformed_attribute_list);
  let wstop = r.pos + wlen in
  let withdrawn = r_prefixes_until r wstop in
  let alen = ru16 r in
  if r.pos + alen > r.limit then
    fail (Msg.Update_message_error Msg.Malformed_attribute_list);
  let astop = r.pos + alen in
  let nlri_present = astop < r.limit in
  let attrs = decode_attrs r astop ~nlri_present in
  let nlri = r_prefixes_until r r.limit in
  if nlri <> [] && attrs = None then
    fail (Msg.Update_message_error (Msg.Missing_wellknown_attribute attr_origin));
  Msg.Update { Msg.withdrawn; attrs; nlri }

let decode_notification r =
  let code = ru8 r in
  let sub = ru8 r in
  (* Remaining bytes are diagnostic data; we accept and discard them. *)
  r.pos <- r.limit;
  let err =
    match code, sub with
    | 1, 1 -> Msg.Message_header_error Msg.Connection_not_synchronized
    | 1, 2 -> Msg.Message_header_error (Msg.Bad_message_length 0)
    | 1, _ -> Msg.Message_header_error (Msg.Bad_message_type 0)
    | 2, 1 -> Msg.Open_message_error (Msg.Unsupported_version 0)
    | 2, 2 -> Msg.Open_message_error Msg.Bad_peer_as
    | 2, 3 -> Msg.Open_message_error Msg.Bad_bgp_identifier
    | 2, 4 -> Msg.Open_message_error Msg.Unsupported_optional_parameter
    | 2, _ -> Msg.Open_message_error Msg.Unacceptable_hold_time
    | 3, 2 -> Msg.Update_message_error (Msg.Unrecognized_wellknown_attribute 0)
    | 3, 3 -> Msg.Update_message_error (Msg.Missing_wellknown_attribute 0)
    | 3, 4 -> Msg.Update_message_error (Msg.Attribute_flags_error 0)
    | 3, 5 -> Msg.Update_message_error (Msg.Attribute_length_error 0)
    | 3, 6 -> Msg.Update_message_error Msg.Invalid_origin_attribute
    | 3, 8 -> Msg.Update_message_error Msg.Invalid_next_hop_attribute
    | 3, 9 -> Msg.Update_message_error (Msg.Optional_attribute_error 0)
    | 3, 10 -> Msg.Update_message_error Msg.Invalid_network_field
    | 3, 11 -> Msg.Update_message_error Msg.Malformed_as_path
    | 3, _ -> Msg.Update_message_error Msg.Malformed_attribute_list
    | 4, _ -> Msg.Hold_timer_expired
    | 5, _ -> Msg.Fsm_error
    | _, _ -> Msg.Cease
  in
  Msg.Notification err

let header_min_body = function
  | t when t = type_open -> 10
  | t when t = type_update -> 4
  | t when t = type_route_refresh -> 4
  | _ -> 0

let check_header buf ~pos =
  for i = 0 to 15 do
    if buf.[pos + i] <> '\xFF' then
      fail (Msg.Message_header_error Msg.Connection_not_synchronized)
  done;
  let len = (Char.code buf.[pos + 16] lsl 8) lor Char.code buf.[pos + 17] in
  let mtype = Char.code buf.[pos + 18] in
  if len < Msg.header_len || len > Msg.max_len then
    fail (Msg.Message_header_error (Msg.Bad_message_length len));
  if mtype < type_open || mtype > type_route_refresh then
    fail (Msg.Message_header_error (Msg.Bad_message_type mtype));
  if mtype = type_keepalive && len <> Msg.header_len then
    fail (Msg.Message_header_error (Msg.Bad_message_length len));
  if mtype = type_route_refresh && len <> Msg.header_len + 4 then
    fail (Msg.Message_header_error (Msg.Bad_message_length len));
  if len < Msg.header_len + header_min_body mtype then
    fail (Msg.Message_header_error (Msg.Bad_message_length len));
  (len, mtype)

let decode_at buf ~pos =
  try
    if pos < 0 || pos + Msg.header_len > String.length buf then
      fail (Msg.Message_header_error (Msg.Bad_message_length 0));
    let len, mtype = check_header buf ~pos in
    if pos + len > String.length buf then
      fail (Msg.Message_header_error (Msg.Bad_message_length len));
    let r = { buf; pos = pos + Msg.header_len; limit = pos + len; declared = len } in
    let msg =
      if mtype = type_open then decode_open r
      else if mtype = type_update then decode_update r
      else if mtype = type_notification then decode_notification r
      else if mtype = type_route_refresh then begin
        let afi = ru16 r in
        let _reserved = ru8 r in
        let safi = ru8 r in
        Msg.Route_refresh (afi, safi)
      end
      else Msg.Keepalive
    in
    if r.pos <> r.limit then
      fail (Msg.Message_header_error (Msg.Bad_message_length len));
    Ok (msg, len)
  with Fail e -> Error e

let decode buf =
  match decode_at buf ~pos:0 with
  | Error _ as e -> e
  | Ok (msg, consumed) ->
    if consumed <> String.length buf then
      Error (Msg.Message_header_error (Msg.Bad_message_length consumed))
    else Ok msg

let required_length buf ~pos ~avail =
  if avail < Msg.header_len then Ok None
  else try Ok (Some (fst (check_header buf ~pos))) with Fail e -> Error e

(* Raw path-attribute blocks (no BGP message framing) — used by the MRT
   subsystem, where TABLE_DUMP_V2 RIB entries carry a bare attribute
   blob encoded with 4-octet ASNs. *)

let encode_path_attrs ?(as4 = false) attrs =
  let b = Buffer.create 64 in
  encode_attrs ~as4 b attrs;
  Buffer.contents b

let decode_path_attrs ?(as4 = false) buf ~pos ~len =
  try
    if pos < 0 || len < 0 || pos + len > String.length buf then
      fail (Msg.Update_message_error Msg.Malformed_attribute_list);
    let stop = pos + len in
    let r = { buf; pos; limit = stop; declared = len } in
    (* The span cache is keyed purely on bytes, so it must be bypassed
       whenever the same bytes could decode differently ([as4]). *)
    let attrs =
      if as4 then decode_attrs_slow ~as4 r stop ~nlri_present:true
      else decode_attrs r stop ~nlri_present:true
    in
    match attrs with
    | Some h -> Ok h
    | None -> Error (Msg.Update_message_error Msg.Malformed_attribute_list)
  with Fail e -> Error e
