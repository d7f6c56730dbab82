(** Path attributes of a BGP route (RFC 4271 §5).

    Carries the well-known mandatory attributes (ORIGIN, AS_PATH,
    NEXT_HOP) plus the optional ones the decision process and the
    benchmark's policy layer consult. *)

type origin =
  | Igp         (** learned from an interior protocol; most preferred *)
  | Egp         (** learned via EGP *)
  | Incomplete  (** other means (e.g. redistribution); least preferred *)

val origin_to_int : origin -> int
(** Wire encoding: IGP = 0, EGP = 1, INCOMPLETE = 2; also the
    preference order (lower wins) used by the decision process. *)

val origin_of_int : int -> origin option
val origin_name : origin -> string
(** ["IGP"], ["EGP"] or ["incomplete"]: what {!pp_origin} prints. *)

val pp_origin : Format.formatter -> origin -> unit

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Bgp_addr.Ipv4.t;
  med : int option;          (** MULTI_EXIT_DISC; lower preferred, only
                                 comparable between routes from the same
                                 neighboring AS *)
  local_pref : int option;   (** LOCAL_PREF; higher preferred; IBGP only *)
  atomic_aggregate : bool;
  aggregator : (Asn.t * Bgp_addr.Ipv4.t) option;
  communities : Community.t list;
  originator_id : Bgp_addr.Ipv4.t option;
      (** ORIGINATOR_ID (RFC 4456): router id of the route's IBGP
          originator, stamped by a route reflector *)
  cluster_list : Bgp_addr.Ipv4.t list;
      (** CLUSTER_LIST (RFC 4456): reflection path, most recent cluster
          first; loop protection for reflector topologies *)
}

val make :
  ?origin:origin ->
  ?med:int ->
  ?local_pref:int ->
  ?atomic_aggregate:bool ->
  ?aggregator:Asn.t * Bgp_addr.Ipv4.t ->
  ?communities:Community.t list ->
  ?originator_id:Bgp_addr.Ipv4.t ->
  ?cluster_list:Bgp_addr.Ipv4.t list ->
  as_path:As_path.t ->
  next_hop:Bgp_addr.Ipv4.t ->
  unit ->
  t
(** Default origin is [Igp]; optional attributes default to absent.
    [communities] are canonicalized (sorted, deduplicated) so that
    attribute sets differing only in community insertion order are
    [equal] and intern to one arena entry; [cluster_list] order is
    preserved (it is a reflection path). *)

val with_as_path : As_path.t -> t -> t
val with_local_pref : int option -> t -> t
val with_med : int option -> t -> t
val add_community : Community.t -> t -> t
(** Sorted insertion — keeps the community list canonical. *)

val has_community : Community.t -> t -> bool
val prepend_as : Asn.t -> t -> t
(** Prepend to the AS path (used when exporting over EBGP). *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with [equal]: insensitive to community
    order and to the element order inside AS_SET segments. *)

val pp : Format.formatter -> t -> unit

val default_local_pref : int
(** 100 — the LOCAL_PREF assumed by the decision process when the
    attribute is absent (RFC 4271 §9.1.1). *)

(** The attribute-derived inputs of the decision process, precomputed
    once per interned attribute set so route comparisons never walk the
    AS path. *)
type pref = {
  pr_local_pref : int;        (** LOCAL_PREF, defaulted to 100 *)
  pr_path_len : int;          (** [As_path.length] *)
  pr_origin : int;            (** [origin_to_int]; lower preferred *)
  pr_med : int;               (** MED, defaulted to 0 *)
  pr_first_hop : Asn.t option; (** neighboring AS, for MED comparability *)
  pr_originator_id : int;
      (** ORIGINATOR_ID as an integer ({!Bgp_addr.Ipv4.to_int}), or -1
          when absent *)
  pr_cluster_len : int;       (** CLUSTER_LIST length (RFC 4456 §9) *)
}

(** The hash-consing arena: one canonical handle per distinct attribute
    set.  A handle carries a unique integer id, the cached structural
    hash, and the memoized decision-preference tuple, so RIB change
    detection and decision comparisons are integer compares and UPDATE
    grouping is a table lookup.

    The arena is process-global (attribute sets are immutable and the
    simulation is single-threaded). *)
module Interned : sig
  type attrs = t

  type t

  val intern : attrs -> t
  (** Canonical handle for [attrs]; O(1) amortized on an arena hit. *)

  val find_span : string -> pos:int -> len:int -> t
  (** [find_span buf ~pos ~len] is the handle previously registered for
      the raw attribute byte-span [buf.[pos .. pos+len-1]] via
      {!add_span}, or {!none} (test with [==]); it allocates nothing.
      A hit records exactly the arena stats the skipped {!intern} call
      would have (one intern, one hit, the handle's bytes saved), so
      accounting is independent of which path found the handle. *)

  val add_span : string -> pos:int -> len:int -> t -> unit
  (** Register [handle] as the decode result for the span (copying the
      bytes once).  Call only on a {!find_span} miss, with a handle
      obtained by decoding that very span. *)

  val none : t
  (** A sentinel handle the arena never returns: lets a store mark an
      empty slot without an [option] box per slot.  Test for it with
      [==] — {!equal}'s structural fallback may match it. *)

  val wire_image : t -> string
  (** The handle's encode cache: the path-attribute section of its
      value as an UPDATE carries it (2-octet ASNs), or [""] until
      {!set_wire_image} fills it.  Bound to the handle, not to a shard:
      it survives {!clear}, because the value it encodes is
      immutable. *)

  val set_wire_image : t -> string -> unit
  (** Fill the encode cache; [Bgp_wire.Codec] does so on the first
      encode of the handle.  Domains that race to fill it must store
      byte-identical images, which the codec does: the image is a
      function of the value alone. *)

  val hit : t -> bool
  (** [hit h] is [true] when [intern (value h)] would return [h] itself:
      [h] was interned by the calling domain's shard since its last
      {!clear}.  It then
      records exactly the stats that intern call would have (one intern,
      one hit, [h]'s bytes saved); on [false] it records nothing.  This
      lets a memo of interned results stand in for {!intern} without
      changing the arena accounting, and never return a handle from
      before a clear. *)

  val value : t -> attrs
  val id : t -> int
  val pref : t -> pref

  val equal : t -> t -> bool
  (** Id fast path with a structural fallback, so equality keeps
      [Attrs.equal] semantics across shards (see {!bind_shard}). *)

  val hash : t -> int
  (** The cached structural hash of the underlying value. *)

  val compare_id : t -> t -> int
  (** Total order by arena id (allocation order) — used to make
      handle-keyed iteration deterministic. *)

  val pp : Format.formatter -> t -> unit

  (** Handle-keyed hash tables (announcement grouping, MRAI buffers);
      structural semantics, id-fast-path speed. *)
  module Tbl : Hashtbl.S with type key = t

  type arena_stats = {
    interns : int;     (** total [intern] calls since the last [clear] *)
    hits : int;        (** calls that found an existing entry *)
    live : int;        (** distinct attribute sets in the arena *)
    saved_bytes : int; (** estimated duplicate bytes avoided *)
  }

  val stats : unit -> arena_stats
  (** Aggregated over every shard (see {!bind_shard}), so multi-domain
      runs report the same totals a global arena would. *)

  val hit_rate : arena_stats -> float

  val bind_shard : int -> unit
  (** Bind the calling domain to arena shard [slot].  The arena is
      sharded per domain so partitioned simulations never contend on a
      shared table: each shard allocates ids [slot * 2^40 + k] in its
      own deterministic allocation order, and slot 0 — every domain's
      default — reproduces the historical global arena's ids exactly.
      Structurally equal attrs interned by different shards get
      distinct handles that still satisfy {!equal} (structural
      fallback).  A worker domain driving partition [i] of a
      {!Bgp_sim.Pengine} should call [bind_shard i] from the engine's
      worker-init hook; binding is idempotent and a rebind to the same
      slot resumes that shard (ids stay unique across rebinds). *)

  val clear : unit -> unit
  (** Drop all entries and zero the stats.  Ids keep growing across
      clears so stale handles can never alias fresh ones. *)
end
