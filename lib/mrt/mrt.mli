(** MRT (RFC 6396) reading and writing, restricted to the two record
    families the benchmark replays: TABLE_DUMP_V2 IPv4-unicast RIB
    dumps and BGP4MP update traces.

    The reader decodes attribute blobs straight through
    {!Bgp_wire.Codec.decode_path_attrs}, so every RIB entry's
    attributes intern into the shared arena exactly as a live decode
    would.  The writer produces dumps the reader (and other MRT tools)
    accept, which is how tests and CI exercise replay without any
    external dump: synthesize, write, read back, replay.

    Records the benchmark cannot represent (IPv6 RIBs, state changes,
    unknown types) are skipped and counted, not errors — real
    RouteViews/RIS dumps interleave them freely.  4-octet ASNs outside
    the 16-bit {!Bgp_route.Asn} domain clamp to AS_TRANS (RFC 6793). *)

type peer_entry = {
  pe_bgp_id : Bgp_addr.Ipv4.t;
  pe_addr : Bgp_addr.Ipv4.t;
      (** [Ipv4.zero] when the dump's peer entry is IPv6. *)
  pe_asn : Bgp_route.Asn.t;
}

type source = {
  src_peer : int;        (** index into the preceding peer-index table *)
  src_time : int;        (** originated time, epoch seconds *)
  src_attrs : Bgp_route.Attrs.Interned.t;
}

type rib_entry = {
  seq : int;
  prefix : Bgp_addr.Prefix.t;
  sources : source list;
}

type message = {
  ms_time : float;       (** epoch seconds; microsecond resolution *)
  ms_peer_asn : Bgp_route.Asn.t;
  ms_local_asn : Bgp_route.Asn.t;
  ms_peer_addr : Bgp_addr.Ipv4.t;
  ms_local_addr : Bgp_addr.Ipv4.t;
  ms_msg : Bgp_wire.Msg.t;
}

type record =
  | Peer_index of {
      collector_id : Bgp_addr.Ipv4.t;
      view_name : string;
      peers : peer_entry array;
    }
  | Rib of rib_entry
  | Message of message

(** {1 Reading} *)

val of_string : string -> (record list * int, string) result
(** Parse a whole dump.  [Ok (records, skipped)] preserves record
    order; [skipped] counts well-formed records outside the supported
    subset.  Errors carry the byte offset of the offending record. *)

val read_file : string -> (record list * int, string) result

(** {1 Writing} *)

val to_string : record list -> string
(** Serialize: [Peer_index] and [Rib] as TABLE_DUMP_V2 (peers with
    32-bit ASNs, attributes with 4-octet AS encoding), [Message] as
    BGP4MP_ET so replay timing keeps microsecond resolution. *)

val write_file : string -> record list -> unit

(** {1 Format sniffing} *)

val is_dump : string -> bool
(** Whether these leading bytes of a file start an MRT dump: a known
    record type whose first record fits in them. *)

(** {1 Builders and projections} *)

val rib_table :
  collector_id:Bgp_addr.Ipv4.t -> peer:peer_entry ->
  (Bgp_addr.Prefix.t * Bgp_route.Attrs.Interned.t) list -> record list
(** A single-peer TABLE_DUMP_V2 dump: peer index followed by one RIB
    record per route, sequence-numbered in list order. *)

val routes_of_dump : record list -> (Bgp_addr.Prefix.t * Bgp_route.Attrs.Interned.t) list
(** Best-source view of the RIB records: the first source of each
    entry, in sequence order — what a collector's client would load. *)

val updates_of_dump : record list -> (float * Bgp_wire.Msg.t) list
(** The BGP4MP messages as [(offset, msg)] with offsets rebased so the
    first message is at [0.] — ready for {!Replay}. *)
