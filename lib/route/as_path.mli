(** AS_PATH attribute values (RFC 4271 §4.3, §5.1.2).

    A path is a list of segments; each segment is an ordered AS_SEQUENCE
    or an unordered AS_SET (produced by aggregation).  Path {e length}
    — the quantity the decision process compares, and the quantity the
    benchmark's Speaker 2 manipulates in scenarios 5–8 — counts each
    sequence element as 1 and each whole set as 1. *)

type segment =
  | Seq of Asn.t list  (** AS_SEQUENCE: ordered, most recent AS first *)
  | Set of Asn.t list  (** AS_SET: unordered *)

type t

val empty : t
(** The empty path (routes originated locally). *)

val of_segments : segment list -> t
(** Validates: no empty segments, no segment longer than 255 ASes
    (the wire format's one-octet count).
    @raise Invalid_argument on violation. *)

val segments : t -> segment list

val of_asns : Asn.t list -> t
(** A path of a single AS_SEQUENCE ([empty] for []). *)

val length : t -> int
(** Decision-process length: sequences count per-AS, each set counts 1. *)

val prepend : Asn.t -> t -> t
(** [prepend a p] adds [a] at the front, merging into a front
    AS_SEQUENCE when one exists and it has room. *)

val prepend_n : Asn.t -> int -> t -> t
(** [prepend_n a k p] prepends [a] [k] times (policy path-prepending). *)

val contains : Asn.t -> t -> bool
(** Loop detection (RFC 4271 §9.1.2): does the path mention this AS? *)

val first_hop : t -> Asn.t option
(** The neighboring AS: first element of a leading AS_SEQUENCE.
    [None] for an empty path or a path starting with an AS_SET. *)

val origin_as : t -> Asn.t option
(** The AS that originated the route (last sequence element). *)

val to_asn_list : t -> Asn.t list
(** All ASes in order of appearance (sets flattened in place). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** E.g. [7018 701 {3356 2914} 174]; the empty path is [(empty)]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!pp}'s bytes without a formatter. *)

val hash : t -> int
