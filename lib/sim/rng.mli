(** Deterministic pseudo-random streams (SplitMix-style).

    The random draws of a run — scale-free topology generation, seeded
    by the topology seed, and the fault injector's corruption
    mutations, seeded 0 — pull from an [Rng.t], so identical
    configurations replay identical runs on any machine.  The global [Random] state is never touched. *)

type t

val create : int -> t
(** A stream from a seed. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1].
    @raise Invalid_argument when [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
