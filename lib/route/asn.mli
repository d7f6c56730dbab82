(** Autonomous-system numbers.

    The paper predates RFC 4893; AS numbers are 16-bit, matching the
    two-octet fields of the RFC 4271 wire format. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument outside [0, 65535]. *)

val of_int_opt : int -> t option
val to_int : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val hash : t -> int

val reserved : t
(** AS 0, reserved; never a valid path element. *)

val is_private : t -> bool
(** RFC 1930 private range 64512–65534. *)
