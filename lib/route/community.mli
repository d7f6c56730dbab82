(** BGP communities (RFC 1997): 32-bit route tags, conventionally
    written [asn:value]. *)

type t = private int
(** 32-bit value. *)

val make : Asn.t -> int -> t
(** [make asn v] is the community [asn:v].
    @raise Invalid_argument if [v] is outside [0, 65535]. *)

val of_int32_value : int -> t
(** Raw 32-bit constructor (truncates to 32 bits). *)

val to_int32_value : t -> int
val asn_part : t -> Asn.t
val value_part : t -> int

val no_export : t
(** [0xFFFFFF01]: do not advertise outside the AS. *)

val no_advertise : t
(** [0xFFFFFF02]: do not advertise to any peer. *)

val is_well_known : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
