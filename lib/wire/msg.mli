(** BGP-4 message types (RFC 4271 §4).

    These are the {e semantic} message values; {!Codec} maps them to and
    from the binary wire format. *)

val version : int
(** Protocol version, 4. *)

val header_len : int
(** 19: 16-byte marker + 2-byte length + 1-byte type. *)

val max_len : int
(** 4096, the maximum BGP message size (§4). *)

val hold_time_min : int
(** 3 — smallest nonzero hold time a speaker may offer (§4.2). *)

type capability =
  | Multiprotocol of int * int  (** AFI, SAFI (RFC 2858) *)
  | Route_refresh               (** RFC 2918 *)
  | Unknown_capability of int * string

type opt_param =
  | Capability of capability
  | Unknown_param of int * string

type open_msg = {
  opn_version : int;
  opn_asn : Bgp_route.Asn.t;
  opn_hold_time : int;          (** seconds; 0 disables keepalives *)
  opn_bgp_id : Bgp_addr.Ipv4.t;
  opn_params : opt_param list;
}

type update = {
  withdrawn : Bgp_addr.Prefix.t list;
  attrs : Bgp_route.Attrs.Interned.t option;
      (** Mandatory when [nlri] is non-empty (§5).  Held as an arena
          handle: {!Codec} interns once per decoded UPDATE, so every
          NLRI prefix of the message shares one attribute value. *)
  nlri : Bgp_addr.Prefix.t list;
}

(** Notification error taxonomy (§4.5, §6). *)

type header_sub = Connection_not_synchronized | Bad_message_length of int
                | Bad_message_type of int

type open_sub = Unsupported_version of int | Bad_peer_as | Bad_bgp_identifier
              | Unsupported_optional_parameter | Unacceptable_hold_time

type update_sub =
  | Malformed_attribute_list
  | Unrecognized_wellknown_attribute of int
  | Missing_wellknown_attribute of int
  | Attribute_flags_error of int
  | Attribute_length_error of int
  | Invalid_origin_attribute
  | Invalid_next_hop_attribute
  | Optional_attribute_error of int
  | Invalid_network_field
  | Malformed_as_path

type error =
  | Message_header_error of header_sub
  | Open_message_error of open_sub
  | Update_message_error of update_sub
  | Hold_timer_expired
  | Fsm_error
  | Cease

val error_code : error -> int * int
(** RFC 4271 (code, subcode) pair; subcode 0 when unspecific. *)

val pp_error : Format.formatter -> error -> unit

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of error
  | Route_refresh of int * int
      (** (AFI, SAFI) — RFC 2918; asks the peer to resend its
          Adj-RIB-Out.  AFI 1 / SAFI 1 is IPv4 unicast. *)

val open_msg :
  ?hold_time:int ->
  ?params:opt_param list ->
  asn:Bgp_route.Asn.t ->
  bgp_id:Bgp_addr.Ipv4.t ->
  unit ->
  t
(** Hold time defaults to 90 s. *)

val update :
  ?withdrawn:Bgp_addr.Prefix.t list ->
  ?attrs:Bgp_route.Attrs.t ->
  ?nlri:Bgp_addr.Prefix.t list ->
  unit ->
  t
(** Interns [attrs].
    @raise Invalid_argument if [nlri] is non-empty but [attrs] absent. *)

val update_interned :
  ?withdrawn:Bgp_addr.Prefix.t list ->
  ?attrs:Bgp_route.Attrs.Interned.t ->
  ?nlri:Bgp_addr.Prefix.t list ->
  unit ->
  t
(** Like {!update} but from an existing handle — no arena lookup. *)

val announcement : Bgp_route.Attrs.t -> Bgp_addr.Prefix.t list -> t
val announcement_interned :
  Bgp_route.Attrs.Interned.t -> Bgp_addr.Prefix.t list -> t
val withdrawal : Bgp_addr.Prefix.t list -> t

val route_refresh : t
(** IPv4-unicast route refresh. *)

val kind_name : t -> string
val pp : Format.formatter -> t -> unit

val nlri_count : t -> int
(** Announced prefixes in the message (0 for non-UPDATEs). *)

