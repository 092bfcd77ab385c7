(** Discrete-event simulation engine.

    Strictly sequential and deterministic: events at the same instant
    run in scheduling order.  Independent simulations — groups of hosts
    that share no state — each get their own engine; {!run_all} drains
    several such engines on parallel OCaml domains.  Because the groups
    never interact, every engine's event history is the same whichever
    domain runs it. *)

type t

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulated time. *)

val schedule : t -> delay:Sim_time.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [delay] after the current time.
    [delay] must be non-negative. *)

val at : t -> time:Sim_time.t -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute instant [time], which must not
    be in the simulated past. *)

val run : t -> unit
(** Drain the event queue completely. *)

val run_until : t -> Sim_time.t -> unit
(** Process events with timestamp [<= limit]; afterwards the clock
    reads at least [limit]. *)

val step : t -> bool
(** Process a single event.  Returns [false] when the queue is empty. *)

val pending : t -> int
(** Events still queued. *)

val run_all : t array -> unit
(** [run_all engines] drains every engine: engines [1 .. k-1] on spawned
    domains, engine [0] on the caller.  The engines must share no
    mutable state.  Every spawned domain is joined before returning,
    even when an event raises or a spawn fails; the first exception (in
    engine order, a failed spawn counting as engine 0's) is then
    re-raised. *)
