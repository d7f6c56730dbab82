(** Routing policy: the mechanism that makes BGP "always policy-based"
    (paper §III.A, citing Gao & Rexford).

    A policy is an ordered list of {e terms}, as in XORP's policy
    framework or a Cisco route-map: each term has match conditions
    (ANDed) and either rejects the route or applies a list of actions
    and accepts it.  The first matching term decides; a configurable
    default applies when no term matches.

    Policies are evaluated on {b import} (between Adj-RIB-In and the
    decision process) and on {b export} (between Loc-RIB and each
    Adj-RIB-Out). *)

type cond =
  | Prefix_in of Bgp_addr.Prefix_set.t
      (** the route's prefix equals, or is a more-specific of, a member *)
  | Prefix_exact of Bgp_addr.Prefix_set.t
      (** the route's prefix is exactly a member *)
  | Prefix_len_range of int * int
      (** inclusive bounds on the route's prefix length *)
  | Path_contains of Bgp_route.Asn.t
  | Neighbor_as of Bgp_route.Asn.t  (** first hop of the AS path *)
  | Origin_as of Bgp_route.Asn.t    (** last hop of the AS path *)
  | Path_len_at_least of int
  | Has_community of Bgp_route.Community.t
  | Med_at_most of int              (** false when MED is absent *)
  | Origin_is of Bgp_route.Attrs.origin
  | All of cond list                (** conjunction; [All []] is true *)
  | Any of cond list                (** disjunction; [Any []] is false *)
  | Not of cond

type action =
  | Set_local_pref of int
  | Clear_local_pref
  | Set_med of int
  | Clear_med
  | Prepend_path of Bgp_route.Asn.t * int
  | Add_community of Bgp_route.Community.t
  | Strip_communities
  | Set_next_hop of Bgp_addr.Ipv4.t

type verdict = Accept of action list | Reject

type term = { term_name : string; conds : cond list; verdict : verdict }
(** [conds] are ANDed; an empty list always matches. *)

type t

val make : ?default:[ `Accept | `Reject ] -> name:string -> term list -> t
(** Default default is [`Accept] (BGP's implicit permit differs per
    vendor; XORP accepts when no policy is configured). *)

val name : t -> string
val terms : t -> term list

val accept_all : t
(** The empty always-accept policy. *)

val is_accept_all : t -> bool
(** [true] when the policy accepts every route unchanged (no terms,
    default accept): {!apply} would return [(Some r, 1)] for any [r], so
    a caller may skip it and charge the one unit itself. *)

val reject_all : t

val eval : t -> Bgp_route.Route.t -> Bgp_route.Route.t option
(** [eval p r] is [None] when rejected, or [Some r'] with the first
    matching term's actions applied. *)

val matches : cond -> Bgp_route.Route.t -> bool
(** Evaluate a single condition (exposed for tests). *)

val apply_action : action -> Bgp_route.Route.t -> Bgp_route.Route.t

val apply : t -> Bgp_route.Route.t -> Bgp_route.Route.t option * int
(** [apply p r] is [(eval p r, units)] from one evaluation, where
    [units] is the number of condition evaluations performed on [r]
    (at least 1, for the empty policy) — the quantity the router cost
    model charges for policy processing. *)

val pp : Format.formatter -> t -> unit
