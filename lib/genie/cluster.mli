(** A many-host Genie testbed for parallel-simulation scaling: [pairs]
    independent sender/receiver host pairs.

    Pairs share no state, so each is an independent simulation.  The
    cluster builds [k = min domains pairs] engines and puts both hosts
    of pair [i] on engine [i mod k]; {!drive} drains them with
    {!Simcore.Engine.run_all}, one OCaml domain per engine.  [domains]
    changes only how fast the host runs the simulation. *)

type t

val create :
  ?domains:int ->
  ?pairs:int ->
  ?params:Net.Net_params.t ->
  ?spec:Machine.Machine_spec.t ->
  ?pool_frames:int ->
  unit ->
  t
(** Defaults: 1 domain, 2 pairs, OC-3 links, Micron P166 hosts.  Raises
    [Invalid_argument] when [domains] or [pairs] is below 1. *)

val drive : t -> seed:int -> messages:int -> string
(** Run a deterministic pipelined workload — [messages] datagrams of
    pseudo-random page-multiple sizes on every pair, receivers
    preposting app-buffer inputs — to completion, and return a hex
    digest folding every completion's (index, size, payload check,
    timestamp) plus the latest final simulated time over the engines.
    The digest is a function of [seed], [messages] and [pairs] only: it
    is bit-identical across [domains] counts. *)
