module Mrt = Bgp_mrt.Mrt
module Msg = Bgp_wire.Msg
module I = Bgp_route.Attrs.Interned
module Ipv4 = Bgp_addr.Ipv4
module Prefix_gen = Bgp_addr.Prefix_gen

let records ?(seed = 42) ?events ~n ~speaker_asn ~next_hop () =
  if n < 1 then invalid_arg "Mrt_gen.records: n must be >= 1";
  let events =
    match events with
    | None -> max 20 (n / 5)
    | Some e when e < 0 -> invalid_arg "Mrt_gen.records: events must be >= 0"
    | Some e -> e
  in
  let entries = Table_io.synthesize ~seed ~n ~speaker_asn () in
  let prefixes = Array.of_list (List.map (fun e -> e.Table_io.e_prefix) entries) in
  let routes =
    List.map
      (fun e -> (e.Table_io.e_prefix, I.intern (Table_io.to_attrs ~next_hop e)))
      entries
  in
  let peer =
    { Mrt.pe_bgp_id = next_hop; pe_addr = next_hop; pe_asn = speaker_asn }
  in
  let table =
    Mrt.rib_table ~collector_id:(Ipv4.of_octets 10 0 0 1) ~peer routes
  in
  let local_addr = Ipv4.of_octets 10 0 0 1 in
  let message i msg =
    (* 20 ms spacing = 50 msgs/s recorded; exact in whole microseconds,
       so the write -> read roundtrip reproduces offsets bit-for-bit. *)
    let ms_time = float_of_int (i * 20_000) /. 1e6 in
    Mrt.Message
      { Mrt.ms_time; ms_peer_asn = speaker_asn; ms_local_asn = speaker_asn;
        ms_peer_addr = next_hop; ms_local_addr = local_addr; ms_msg = msg }
  in
  let trace =
    List.init events (fun i ->
        let h = Prefix_gen.mix64 ((seed * 31) + 7 + i) land max_int in
        let prefix = prefixes.(h mod n) in
        if (h lsr 8) mod 4 = 0 then message i (Msg.withdrawal [ prefix ])
        else
          let path_len = 2 + ((h lsr 16) mod 5) in
          let med = if h land 0x40000 = 0 then None else Some (h land 0xFF) in
          let attrs =
            Workload.attrs ?med ~speaker_asn ~next_hop ~path_len ()
          in
          message i (Msg.announcement attrs [ prefix ]))
  in
  table @ trace
