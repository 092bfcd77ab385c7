(** Calendar-queue timer wheel: the engine's event queue.

    Same ordering contract as {!Heap} — ascending key, insertion order
    for equal keys — but with an O(1) allocation-free schedule fast path
    for near-future events (a ~1 ms window of 1024 buckets) and a
    binary-heap overflow for far-future ones, which migrate into the
    wheel as the cursor approaches.

    Keys are non-negative and must never go below the last popped key
    (the engine's no-scheduling-in-the-past rule); violating either
    raises [Invalid_argument]. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills empty bucket slots (never returned). *)

val push : 'a t -> key:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum (key, insertion-order) entry. *)

val peek_key : 'a t -> int option

val length : 'a t -> int

val is_empty : 'a t -> bool
