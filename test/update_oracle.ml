(* Reference UPDATE encoder for the codec's differential tests: the
   buffer-based encoder the codec used before it encoded UPDATEs in one
   pass from the handle's cached attribute image.  Every attribute body
   goes through a scratch buffer, then the body through another, then
   the frame; nothing is cached.  Same size checks and messages as
   [Codec.encode_opt]: [None] past [Msg.max_len], [Invalid_argument]
   for fields the two-octet length fields cannot carry. *)

open Bgp_wire
module A = Bgp_route.Attrs
module P = Bgp_addr.Prefix

let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let u16 b v =
  u8 b (v lsr 8);
  u8 b v

let u32 b v =
  u16 b (v lsr 16);
  u16 b (v land 0xFFFF)

let add_ipv4 b a = u32 b (Bgp_addr.Ipv4.to_int a)

let add_prefix b p =
  u8 b (P.len p);
  let a = Bgp_addr.Ipv4.to_int (P.addr p) in
  for i = 0 to P.wire_octets p - 1 do
    u8 b ((a lsr (24 - (8 * i))) land 0xFF)
  done

let add_attr b ~flags ~code body =
  let len = Buffer.length body in
  if len > 0xFFFF then invalid_arg "Codec: attribute too long";
  let flags = if len > 0xFF then flags lor 0x10 else flags in
  u8 b flags;
  u8 b code;
  if flags land 0x10 <> 0 then u16 b len else u8 b len;
  Buffer.add_buffer b body

let encode_attrs b (attrs : A.t) =
  let optional = 0x80 and transitive = 0x40 in
  let scratch = Buffer.create 64 in
  let emit ~flags ~code fill =
    Buffer.clear scratch;
    fill scratch;
    add_attr b ~flags ~code scratch
  in
  emit ~flags:transitive ~code:1 (fun s -> u8 s (A.origin_to_int attrs.A.origin));
  emit ~flags:transitive ~code:2 (fun s ->
      List.iter
        (fun seg ->
          let tag, asns =
            match seg with
            | Bgp_route.As_path.Set asns -> (1, asns)
            | Bgp_route.As_path.Seq asns -> (2, asns)
          in
          let n = List.length asns in
          if n = 0 || n > 255 then invalid_arg "Codec: bad AS_PATH segment";
          u8 s tag;
          u8 s n;
          List.iter (fun a -> u16 s (Bgp_route.Asn.to_int a)) asns)
        (Bgp_route.As_path.segments attrs.A.as_path));
  emit ~flags:transitive ~code:3 (fun s -> add_ipv4 s attrs.A.next_hop);
  Option.iter (fun med -> emit ~flags:optional ~code:4 (fun s -> u32 s med))
    attrs.A.med;
  Option.iter (fun lp -> emit ~flags:transitive ~code:5 (fun s -> u32 s lp))
    attrs.A.local_pref;
  if attrs.A.atomic_aggregate then emit ~flags:transitive ~code:6 ignore;
  Option.iter
    (fun (asn, addr) ->
      emit ~flags:(optional lor transitive) ~code:7 (fun s ->
          u16 s (Bgp_route.Asn.to_int asn);
          add_ipv4 s addr))
    attrs.A.aggregator;
  if attrs.A.communities <> [] then
    emit ~flags:(optional lor transitive) ~code:8 (fun s ->
        List.iter
          (fun c -> u32 s (Bgp_route.Community.to_int32_value c))
          attrs.A.communities);
  Option.iter (fun oid -> emit ~flags:optional ~code:9 (fun s -> add_ipv4 s oid))
    attrs.A.originator_id;
  if attrs.A.cluster_list <> [] then
    emit ~flags:optional ~code:10 (fun s -> List.iter (add_ipv4 s) attrs.A.cluster_list)

let encode_opt (u : Msg.update) =
  let body = Buffer.create 64 in
  let withdrawn = Buffer.create 64 in
  List.iter (add_prefix withdrawn) u.Msg.withdrawn;
  if Buffer.length withdrawn > 0xFFFF then
    invalid_arg "Codec: withdrawn routes too long";
  u16 body (Buffer.length withdrawn);
  Buffer.add_buffer body withdrawn;
  let attrs = Buffer.create 64 in
  Option.iter (fun h -> encode_attrs attrs (A.Interned.value h)) u.Msg.attrs;
  if Buffer.length attrs > 0xFFFF then
    invalid_arg "Codec: path attributes too long";
  u16 body (Buffer.length attrs);
  Buffer.add_buffer body attrs;
  List.iter (add_prefix body) u.Msg.nlri;
  let total = Msg.header_len + Buffer.length body in
  if total > Msg.max_len then None
  else begin
    let b = Buffer.create total in
    Buffer.add_string b (String.make 16 '\xFF');
    u16 b total;
    u8 b 2;
    Buffer.add_buffer b body;
    Some (Buffer.contents b)
  end
