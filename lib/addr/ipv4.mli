(** IPv4 addresses.

    An address is an unboxed 32-bit value carried in a native [int]
    (always non-negative, in the range [0, 2{^32} - 1]).  This gives
    allocation-free arithmetic, which matters because the forwarding
    structures and workload generators manipulate millions of
    addresses. *)

type t = private int
(** An IPv4 address. The [private] view guarantees the 32-bit range
    invariant is enforced by this module. *)

val of_int : int -> t
(** [of_int n] truncates [n] to its low 32 bits. *)

val to_int : t -> int
(** [to_int a] is the address as an integer in [0, 2{^32} - 1]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d]. Each octet is
    truncated to 8 bits. *)

val to_octets : t -> int * int * int * int

val of_string : string -> (t, string) result
(** Parse dotted-quad notation. Rejects out-of-range octets, empty
    components, and trailing garbage. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val to_string : t -> string
(** Dotted quad, e.g. ["192.0.2.1"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s bytes without building the string. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int

val equal : t -> t -> bool

val zero : t

val broadcast : t
(** [255.255.255.255] *)

val succ : t -> t
(** Successor, wrapping at [broadcast]. *)

val add : t -> int -> t
(** [add a n] offsets [a] by [n], modulo 2{^32}. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant
    bit (network order, as used by prefix tries).
    @raise Invalid_argument if [i] is outside [0, 31]. *)

val mask : int -> t
(** [mask len] is the netmask with [len] leading one bits.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val apply_mask : t -> int -> t
(** [apply_mask a len] zeroes all but the [len] leading bits of [a]. *)

val common_prefix_len : t -> t -> int
(** Length of the longest common leading bit string of two addresses,
    in [0, 32]. *)

val hash : t -> int
