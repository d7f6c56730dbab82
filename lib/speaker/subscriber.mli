(** Subscriber-edge churn workload (scenario 16): the BNG/WISP
    "subscriber route manager" pattern, where every broadband session
    contributes one /32 host route and the BGP load is dominated not by
    table transfers but by {e churn} — sessions coming and going all
    day, plus rare full-edge failovers.

    This module is the pure, deterministic model: given a {!config} it
    precomputes the subscriber prefix pool, the rate-limited injection
    schedule, and the churn {e plan} (a Markov up/down walk over
    sessions, driven by SplitMix64 off the seed).  Both the harness
    driver and its verification oracle fold the same plan, so expected
    end-state is computed independently of what the router actually
    did.  Nothing here touches a clock or a link — scheduling is the
    harness's job. *)

type config = {
  subscribers : int;  (** number of /32 session routes *)
  batch : int;  (** prefixes per injection batch (and NLRI packing) *)
  batch_interval : float;  (** seconds between injection batches *)
  churn_rate : float;  (** session events per second during churn *)
  churn_duration : float;  (** seconds of steady-state churn *)
  seed : int;
}

val default : config
(** 10k subscribers, batches of 500 every 20ms (25k routes/s
    injection), 500 events/s of churn for 2s, seed 42. *)

(** One step of the churn plan, applied to session [ev_idx] at time
    [ev_at] (relative to the start of the churn phase). *)
type event_kind =
  | Up  (** session returns: announce its /32 *)
  | Down  (** session drops: withdraw its /32 *)
  | Resync
      (** BNG keepalive resync: re-announce the /32 with identical
          attributes while the session stays up.  Zero routing change —
          but it is exactly the traffic that falsely tripped the old
          NLRI-length prefix-limit check at a full table. *)

type event = { ev_at : float; ev_idx : int; ev_kind : event_kind }

type t

val create : config -> t
(** Precompute pool, batches and plan.
    @raise Invalid_argument if [subscribers] exceeds the 100.64.0.0/10
    pool (2^22 hosts), or any rate/size field is non-positive. *)

val config : t -> config

val prefixes : t -> Bgp_addr.Prefix.t array
(** The subscriber /32s, drawn consecutively from the RFC 6598 CGNAT
    pool 100.64.0.0/10 (one address per session, as a BNG would
    allocate). *)

val batches : t -> (float * Bgp_addr.Prefix.t array) list
(** The rate-limited injection schedule: [(at, batch)] pairs with [at]
    relative to the start of the injection phase, batch [k] at
    [k * batch_interval]. *)

val plan : t -> event list
(** The churn plan in time order.  Kinds are state-consistent by
    construction: [Up] only fires for a down session, [Down]/[Resync]
    only for an up one, so replaying the plan's announces/withdraws
    from a fully-injected table is always valid. *)

val n_events : t -> int

val final_up : t -> bool array
(** [final_up t].(i) — is session [i] up after the whole plan runs?
    (All sessions start up, i.e. injected.)  This is the oracle for the
    post-churn table: the router's FIB and the far speaker's received
    set must equal exactly the up sessions' prefixes. *)

val up_count : t -> int
(** [Array.length (filter final_up)] — expected post-churn table size,
    and therefore the expected size of the failover withdraw sweep. *)

val up_prefixes : t -> Bgp_addr.Prefix.t list
(** The expected post-churn route set, ascending by subscriber index. *)
