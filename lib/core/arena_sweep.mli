(** Full-table scale sweep for the attribute arena.

    For each requested table size the sweep replays an Internet-shaped
    synthetic table through the receiver path — wire decode (which
    interns once per UPDATE), RIB announce via the attr-group batched
    path, and export rewriting.  Each run reports arena statistics and
    [Gc.allocated_bytes] per processed UPDATE at full-table scale (the
    ROADMAP's 250k+-prefix target). *)

type cell = {
  sw_prefixes : int;
  sw_updates : int;            (** UPDATE messages decoded and applied *)
  sw_interns : int;
  sw_hits : int;
  sw_hit_rate : float;
  sw_live : int;               (** distinct attribute sets in the arena *)
  sw_saved_bytes : int;
  sw_alloc_per_update : float;
      (** [Gc.allocated_bytes] per UPDATE, read after a minor collection
          so the figure does not depend on GC phase *)
  sw_chal_alloc_per_update : float;
      (** allocation per UPDATE while a second peer re-announces the
          table with longer paths (every route loses — the
          scenario-5/6 shape, resolved by the incremental decision
          fast path) *)
  sw_chal_tps : float;
      (** wall-clock prefix transactions/s of that challenger phase —
          the unpaced software msgs/sec ceiling *)
}

type t = { seed : int; packing : int; cells : cell list }

val run : ?seed:int -> ?packing:int -> int list -> t
(** [run counts] sweeps each table size in [counts], one cell per size.
    [packing] (default 500) caps prefixes per UPDATE.  Each cell starts
    from a cleared global arena. *)

val checks : t -> (string * bool) list
(** Per-size acceptance check: arena hit rate above 90%. *)

val render : t -> string
val to_json : t -> Bgp_stats.Json.t
