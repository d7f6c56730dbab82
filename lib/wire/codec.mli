(** Binary encoding and decoding of BGP-4 messages (RFC 4271 §4).

    The encoder produces exact wire images (16-byte all-ones marker,
    network byte order, one- or two-octet attribute lengths with the
    Extended Length flag as needed).  The decoder validates everything
    the RFC requires and reports failures using the notification error
    taxonomy of {!Msg.error}, so a session can answer a malformed
    message with the RFC-mandated NOTIFICATION. *)

val encode : Msg.t -> string
(** Wire image of a message.
    @raise Invalid_argument if the message would exceed
    {!Msg.max_len} bytes or contains unencodable fields (e.g. a hold
    time outside 16 bits). *)

val encode_opt : Msg.t -> string option
(** [Some (encode m)], or [None] when the wire image would exceed
    {!Msg.max_len} bytes.  Other unencodable fields still raise. *)

val encoded_size : Msg.t -> int
(** [String.length (encode m)], without exposing the buffer. *)

(** {1 Packing} — the one UPDATE packer behind the router's MRAI and
    full-table exports, the benchmark speakers and the harness. *)

val updates :
  ?max_count:int ->
  Bgp_route.Attrs.Interned.t option ->
  Bgp_addr.Prefix.t list ->
  Msg.t list
(** [updates ?max_count attrs prefixes] packs [prefixes], in order,
    into as few UPDATEs as fit: announcements sharing [attrs], or
    withdrawals when [attrs] is [None].  Each message holds at most
    [max_count] prefixes (default: no limit) and {!Msg.max_len} wire
    bytes.  A prefix that does not fit beside [attrs] on its own still
    gets a message of its own, which {!encode} then rejects.
    @raise Invalid_argument when [max_count < 1]. *)

val updates_of_runs :
  max_count:int ->
  (Bgp_addr.Prefix.t * Bgp_route.Attrs.Interned.t) list ->
  Msg.t list
(** Pack routes, in order, a run of consecutive routes sharing one
    attribute handle at a time: {!updates} [~max_count] on each run.
    Equal attributes that are not adjacent stay in separate runs, so
    the messages follow the input order, as a table dump replays it.
    @raise Invalid_argument when [max_count < 1] and [routes] is not
    empty. *)

val group_by_attrs :
  (Bgp_addr.Prefix.t * Bgp_route.Attrs.Interned.t) list ->
  (Bgp_route.Attrs.Interned.t * Bgp_addr.Prefix.t list) list
(** Group routes by attribute handle (an UPDATE carries one attribute
    set), the groups in arena-id order and each group's prefixes in
    input order — deterministic whatever order a hash table handed the
    routes over in. *)

val decode : string -> (Msg.t, Msg.error) result
(** Decode a buffer holding exactly one message; trailing bytes are a
    {!Msg.Bad_message_length} error. *)

val decode_at : string -> pos:int -> (Msg.t * int, Msg.error) result
(** Decode one message starting at [pos]; returns the message and the
    number of bytes consumed.  The buffer may extend beyond the
    message. *)

val required_length : string -> pos:int -> avail:int -> (int option, Msg.error) result
(** Stream framing support: given [avail] readable bytes at [pos],
    returns [Some n] when the next message occupies [n] bytes ([n] may
    exceed [avail]; read more and retry), [None] when even the header
    is incomplete, or a header error (bad marker / bad length) that
    must terminate the session. *)

(** {1 Raw path-attribute blocks} — the bare attribute section of an
    UPDATE, without any BGP message framing.  MRT TABLE_DUMP_V2 RIB
    entries (RFC 6396 §4.3) carry exactly this, encoded with 4-octet
    ASNs ([as4]).  4-octet ASNs outside the 16-bit {!Bgp_route.Asn}
    domain are clamped to AS_TRANS (23456, RFC 6793), matching what a
    NEW-to-OLD speaker translation would put on the wire. *)

val encode_path_attrs : ?as4:bool -> Bgp_route.Attrs.t -> string
(** Attribute section bytes for [attrs].  [as4] (default [false])
    selects 4-octet AS encoding in AS_PATH and AGGREGATOR. *)

val decode_path_attrs :
  ?as4:bool -> string -> pos:int -> len:int ->
  (Bgp_route.Attrs.Interned.t, Msg.error) result
(** Decode [len] bytes of attributes at [pos], interning the result.
    The mandatory attributes (ORIGIN, AS_PATH, NEXT_HOP) must all be
    present, as for an UPDATE carrying NLRI.  The byte-span intern
    cache is bypassed when [as4] is set (same bytes, different
    decode). *)
