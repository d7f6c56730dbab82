module Ipv4 = Bgp_addr.Ipv4
module Prefix = Bgp_addr.Prefix
module Asn = Bgp_route.Asn
module I = Bgp_route.Attrs.Interned
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec

type peer_entry = {
  pe_bgp_id : Ipv4.t;
  pe_addr : Ipv4.t;
  pe_asn : Asn.t;
}

type source = {
  src_peer : int;
  src_time : int;
  src_attrs : I.t;
}

type rib_entry = {
  seq : int;
  prefix : Prefix.t;
  sources : source list;
}

type message = {
  ms_time : float;
  ms_peer_asn : Asn.t;
  ms_local_asn : Asn.t;
  ms_peer_addr : Ipv4.t;
  ms_local_addr : Ipv4.t;
  ms_msg : Msg.t;
}

type record =
  | Peer_index of {
      collector_id : Ipv4.t;
      view_name : string;
      peers : peer_entry array;
    }
  | Rib of rib_entry
  | Message of message

(* RFC 6396 type/subtype constants. *)
let t_table_dump = 12
let t_table_dump_v2 = 13
let t_bgp4mp = 16
let t_bgp4mp_et = 17
let st_peer_index_table = 1
let st_rib_ipv4_unicast = 2
let st_bgp4mp_message = 1
let st_bgp4mp_message_as4 = 4
let st_bgp4mp_state_change = 0
let st_bgp4mp_state_change_as4 = 5

let as_trans = Asn.of_int 23456

let clamp_asn v =
  match Asn.of_int_opt v with Some a -> a | None -> as_trans

(* ---------- reading ---------- *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

type reader = { buf : string; mutable pos : int; limit : int }

let need r n what =
  if r.pos + n > r.limit then
    fail "truncated %s at offset %d (need %d bytes, have %d)" what r.pos n
      (r.limit - r.pos)

let ru8 r what =
  need r 1 what;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru16 r what =
  need r 2 what;
  let v =
    (Char.code r.buf.[r.pos] lsl 8) lor Char.code r.buf.[r.pos + 1]
  in
  r.pos <- r.pos + 2;
  v

let ru32 r what =
  need r 4 what;
  let v =
    (Char.code r.buf.[r.pos] lsl 24)
    lor (Char.code r.buf.[r.pos + 1] lsl 16)
    lor (Char.code r.buf.[r.pos + 2] lsl 8)
    lor Char.code r.buf.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let r_ipv4 r what = Ipv4.of_int (ru32 r what)

let r_prefix r =
  let plen = ru8 r "prefix length" in
  if plen > 32 then fail "prefix length %d > 32 at offset %d" plen (r.pos - 1);
  let noct = (plen + 7) / 8 in
  need r noct "prefix octets";
  let addr = ref 0 in
  for i = 0 to 3 do
    let o = if i < noct then Char.code r.buf.[r.pos + i] else 0 in
    addr := (!addr lsl 8) lor o
  done;
  r.pos <- r.pos + noct;
  Prefix.make (Ipv4.of_int !addr) plen

let parse_peer_index r =
  let collector_id = r_ipv4 r "collector id" in
  let vlen = ru16 r "view name length" in
  need r vlen "view name";
  let view_name = String.sub r.buf r.pos vlen in
  r.pos <- r.pos + vlen;
  let count = ru16 r "peer count" in
  let peers =
    Array.init count (fun _ ->
        let ptype = ru8 r "peer type" in
        let pe_bgp_id = r_ipv4 r "peer bgp id" in
        let pe_addr =
          if ptype land 0x01 = 0 then r_ipv4 r "peer address"
          else begin
            (* IPv6 peer: skip the 16 address octets, keep a zero
               placeholder — sources referencing it stay indexable. *)
            need r 16 "peer IPv6 address";
            r.pos <- r.pos + 16;
            Ipv4.zero
          end
        in
        let pe_asn =
          if ptype land 0x02 = 0 then Asn.of_int (ru16 r "peer AS")
          else clamp_asn (ru32 r "peer AS4")
        in
        { pe_bgp_id; pe_addr; pe_asn })
  in
  Peer_index { collector_id; view_name; peers }

let parse_rib_ipv4 r =
  let seq = ru32 r "RIB sequence" in
  let prefix = r_prefix r in
  let count = ru16 r "RIB entry count" in
  let sources =
    List.init count (fun _ ->
        let src_peer = ru16 r "peer index" in
        let src_time = ru32 r "originated time" in
        let alen = ru16 r "attribute length" in
        need r alen "RIB attributes";
        let src_attrs =
          match Codec.decode_path_attrs ~as4:true r.buf ~pos:r.pos ~len:alen with
          | Ok h -> h
          | Error e ->
            fail "bad RIB attributes at offset %d: %s" r.pos
              (Fmt.str "%a" Msg.pp_error e)
        in
        r.pos <- r.pos + alen;
        { src_peer; src_time; src_attrs })
  in
  Rib { seq; prefix; sources }

let parse_bgp4mp r ~subtype ~secs ~usecs =
  let as4 = subtype = st_bgp4mp_message_as4 in
  let ms_peer_asn =
    if as4 then clamp_asn (ru32 r "peer AS4") else Asn.of_int (ru16 r "peer AS")
  in
  let ms_local_asn =
    if as4 then clamp_asn (ru32 r "local AS4")
    else Asn.of_int (ru16 r "local AS")
  in
  let _ifindex = ru16 r "interface index" in
  let afi = ru16 r "AFI" in
  if afi <> 1 then None (* IPv6 message: skip *)
  else begin
    let ms_peer_addr = r_ipv4 r "peer address" in
    let ms_local_addr = r_ipv4 r "local address" in
    match Codec.decode_at r.buf ~pos:r.pos with
    | Error e ->
      fail "bad BGP message at offset %d: %s" r.pos (Fmt.str "%a" Msg.pp_error e)
    | Ok (ms_msg, consumed) ->
      if r.pos + consumed > r.limit then
        fail "BGP message at offset %d overruns its MRT record" r.pos;
      r.pos <- r.pos + consumed;
      let ms_time = float_of_int secs +. (float_of_int usecs /. 1e6) in
      Some
        (Message
           { ms_time; ms_peer_asn; ms_local_asn; ms_peer_addr; ms_local_addr;
             ms_msg })
  end

let of_string buf =
  try
    let len = String.length buf in
    let records = ref [] in
    let skipped = ref 0 in
    let pos = ref 0 in
    while !pos < len do
      if !pos + 12 > len then fail "truncated MRT header at offset %d" !pos;
      let hdr = { buf; pos = !pos; limit = len } in
      let secs = ru32 hdr "timestamp" in
      let mtype = ru16 hdr "type" in
      let subtype = ru16 hdr "subtype" in
      let blen = ru32 hdr "length" in
      let body = !pos + 12 in
      if body + blen > len then
        fail "record at offset %d declares %d body bytes but only %d remain"
          !pos blen (len - body);
      let r = { buf; pos = body; limit = body + blen } in
      (if mtype = t_table_dump_v2 then begin
         if subtype = st_peer_index_table then
           records := parse_peer_index r :: !records
         else if subtype = st_rib_ipv4_unicast then
           records := parse_rib_ipv4 r :: !records
         else incr skipped
       end
       else if mtype = t_bgp4mp || mtype = t_bgp4mp_et then begin
         let usecs =
           if mtype = t_bgp4mp_et then ru32 r "microseconds" else 0
         in
         if subtype = st_bgp4mp_message || subtype = st_bgp4mp_message_as4
         then
           match parse_bgp4mp r ~subtype ~secs ~usecs with
           | Some rec_ -> records := rec_ :: !records
           | None -> incr skipped
         else if
           subtype = st_bgp4mp_state_change
           || subtype = st_bgp4mp_state_change_as4
         then incr skipped
         else incr skipped
       end
       else incr skipped);
      pos := body + blen
    done;
    Ok (List.rev !records, !skipped)
  with Fail e -> Error e

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | buf -> of_string buf

(* ---------- writing ---------- *)

let w8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w16 b v =
  w8 b (v lsr 8);
  w8 b v

let w32 b v =
  w16 b (v lsr 16);
  w16 b (v land 0xffff)

let add_record b ~ts ~mtype ~subtype body =
  w32 b ts;
  w16 b mtype;
  w16 b subtype;
  w32 b (String.length body);
  Buffer.add_string b body

let peer_index_body ~collector_id ~view_name peers =
  let b = Buffer.create 64 in
  w32 b (Ipv4.to_int collector_id);
  w16 b (String.length view_name);
  Buffer.add_string b view_name;
  w16 b (Array.length peers);
  Array.iter
    (fun p ->
      w8 b 0x02 (* IPv4 address, 32-bit AS *);
      w32 b (Ipv4.to_int p.pe_bgp_id);
      w32 b (Ipv4.to_int p.pe_addr);
      w32 b (Asn.to_int p.pe_asn))
    peers;
  Buffer.contents b

let rib_body e =
  let b = Buffer.create 64 in
  w32 b e.seq;
  let plen = Prefix.len e.prefix in
  w8 b plen;
  let addr = Ipv4.to_int (Prefix.addr e.prefix) in
  for i = 0 to Prefix.wire_octets e.prefix - 1 do
    w8 b ((addr lsr (24 - (8 * i))) land 0xff)
  done;
  w16 b (List.length e.sources);
  List.iter
    (fun s ->
      w16 b s.src_peer;
      w32 b s.src_time;
      let attrs = Codec.encode_path_attrs ~as4:true (I.value s.src_attrs) in
      w16 b (String.length attrs);
      Buffer.add_string b attrs)
    e.sources;
  Buffer.contents b

let message_body ~usecs m =
  let b = Buffer.create 64 in
  w32 b usecs;
  w16 b (Asn.to_int m.ms_peer_asn);
  w16 b (Asn.to_int m.ms_local_asn);
  w16 b 0 (* interface index *);
  w16 b 1 (* AFI: IPv4 *);
  w32 b (Ipv4.to_int m.ms_peer_addr);
  w32 b (Ipv4.to_int m.ms_local_addr);
  Buffer.add_string b (Codec.encode m.ms_msg);
  Buffer.contents b

let to_string records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      match r with
      | Peer_index { collector_id; view_name; peers } ->
        add_record b ~ts:0 ~mtype:t_table_dump_v2 ~subtype:st_peer_index_table
          (peer_index_body ~collector_id ~view_name peers)
      | Rib e ->
        add_record b ~ts:0 ~mtype:t_table_dump_v2 ~subtype:st_rib_ipv4_unicast
          (rib_body e)
      | Message m ->
        let secs = int_of_float (floor m.ms_time) in
        let usecs =
          int_of_float (Float.round ((m.ms_time -. floor m.ms_time) *. 1e6))
        in
        let secs, usecs =
          if usecs >= 1_000_000 then (secs + 1, usecs - 1_000_000)
          else (secs, usecs)
        in
        add_record b ~ts:secs ~mtype:t_bgp4mp_et ~subtype:st_bgp4mp_message
          (message_body ~usecs m))
    records;
  Buffer.contents b

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string records))

(* ---------- sniffing ---------- *)

let is_dump s =
  let u16 p = (Char.code s.[p] lsl 8) lor Char.code s.[p + 1] in
  String.length s >= 12
  && List.mem (u16 4) [ t_table_dump; t_table_dump_v2; t_bgp4mp; t_bgp4mp_et ]
  && 12 + ((u16 8 lsl 16) lor u16 10) <= String.length s

(* ---------- builders and projections ---------- *)

let rib_table ~collector_id ~peer routes =
  Peer_index { collector_id; view_name = "bgpmark"; peers = [| peer |] }
  :: List.mapi
       (fun i (prefix, attrs) ->
         Rib
           { seq = i; prefix;
             sources = [ { src_peer = 0; src_time = 0; src_attrs = attrs } ] })
       routes

let routes_of_dump records =
  let ribs =
    List.filter_map (function Rib e -> Some e | _ -> None) records
  in
  let ribs = List.stable_sort (fun a b -> compare a.seq b.seq) ribs in
  List.filter_map
    (fun e ->
      match e.sources with
      | [] -> None
      | s :: _ -> Some (e.prefix, s.src_attrs))
    ribs

let updates_of_dump records =
  let msgs =
    List.filter_map (function Message m -> Some m | _ -> None) records
  in
  match msgs with
  | [] -> []
  | first :: _ ->
    let t0 = first.ms_time in
    List.map (fun m -> (m.ms_time -. t0, m.ms_msg)) msgs
