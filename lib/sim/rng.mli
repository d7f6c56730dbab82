(** Deterministic pseudo-random streams (SplitMix-style).

    Every stochastic element of the benchmark — cross-traffic
    inter-arrival jitter, AS-path length draws — pulls from an [Rng.t]
    seeded by the scenario configuration, so identical configurations
    replay identical runs on any machine.  The global [Random] state is
    never touched. *)

type t

val create : int -> t
(** A stream from a seed. *)

val split : t -> t
(** An independent stream derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1].
    @raise Invalid_argument when [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed (Poisson inter-arrivals). *)
