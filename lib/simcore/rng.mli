(** Deterministic pseudo-random number generator (splitmix64).

    Used for workload generation and the cross-architecture scaling jitter
    so that every run of the reproduction is bit-for-bit repeatable. *)

type t

val create : seed:int -> t

val next_int64 : t -> int64

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val range_float : t -> lo:float -> hi:float -> float

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given positive [mean] — Poisson
    interarrival gaps for open-loop workload generators. *)

val bounded_pareto : t -> alpha:float -> lo:float -> hi:float -> float
(** Bounded (truncated) Pareto with shape [alpha] on [\[lo, hi\]]
    ([0 < lo < hi]), by inverse-CDF sampling: the heavy-tailed
    request-size model of the fabric workload generator. *)

val split : t -> t
(** Derive an independent stream, advancing [t]. *)

val stream : t -> id:int -> t
(** [stream t ~id] derives the [id]-th independent stream from [t]'s
    current state {e without} advancing it: the same [(t, id)] always
    yields the same stream, so per-port generators split from one seed
    are reproducible regardless of derivation order.  [id] must be
    non-negative. *)
