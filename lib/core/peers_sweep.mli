(** Extension experiment: peering-density scaling.

    The paper's benchmark uses exactly two speakers.  Real routers peer
    with dozens of neighbors, and every additional Adj-RIB-In adds a
    candidate to each decision.  This experiment grows the speaker
    count: all N speakers inject the same table (with per-speaker path
    lengths so one of them wins), then the winner re-announces every
    prefix with a better path — scenario-7 work with an N-way decision
    per prefix — and we measure how transactions/s falls off with N. *)

type point = {
  n_peers : int;
  tps : float;
  avg_candidates : float;
      (** mean decision candidates per processed prefix in the
          measured phase *)
}

type t = {
  arch_name : string;
  points : point list;  (** ascending [n_peers] *)
}

val run :
  ?table_size:int -> ?seed:int -> ?counts:int list -> Bgp_router.Arch.t -> t
(** Defaults: table 2000, seed 42, counts [2; 4; 8; 16].
    @raise Invalid_argument for counts below 2 or a table size below
    1. *)

val render : t -> string

val to_json : t -> Bgp_stats.Json.t
(** Machine-readable sweep (the [bgpbench peers --json] payload). *)
