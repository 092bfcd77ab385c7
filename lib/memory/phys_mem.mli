(** Physical memory: the frame pool and the free list.

    Implements {e I/O-deferred page deallocation} (paper Section 3.1):
    [deallocate] refrains from putting a frame with pending I/O references
    on the free list; instead the frame becomes a zombie, and the final
    [unref_input]/[unref_output] places it on the free list.  This is what
    makes in-place I/O safe when an application frees (or exits with)
    memory that a device is still reading or writing.

    Frames get their bytes on first write: until then every frame of a
    [t] shares one read-only zero page ([Frame.known_zero]), so creating
    physical memory costs O(frames), and memory the simulation never
    writes is never allocated. *)

type t

exception Out_of_frames

val create : Machine.Machine_spec.t -> t
(** Frame pool sized to the machine's physical memory, every frame
    [known_zero] on the shared zero page. *)

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int

val set_trace_scope : t -> Simcore.Tracer.scope -> unit
(** Install the typed trace scope for memory-layer events (frame
    alloc/free counters, I/O-deferred deallocations). *)

val alloc : t -> Frame.t
(** Take a frame off the free list; contents are unspecified.  When
    {!debug_poison} is set the frame is filled with [0xAA] to surface
    missing-zeroing bugs (which gives it private bytes); otherwise
    allocation is O(1) and a never-written frame stays [known_zero].
    @raise Out_of_frames when physical memory is exhausted. *)

val alloc_zeroed : t -> Frame.t
(** Like {!alloc} but with all-zero contents.  A [known_zero] frame is
    handed out as is, in O(1); a frame with private bytes is refilled. *)

val alloc_many : t -> int -> Frame.t list
(** Allocate a batch.  On [Out_of_frames] the partially allocated batch
    is released back to the free list before the exception propagates. *)

val deallocate : t -> Frame.t -> unit
(** Release an [Allocated] frame.  If the frame has I/O references it
    becomes a [Zombie] and is reclaimed later; otherwise it goes straight
    to the free list. *)

val ref_input : t -> Frame.t -> unit
val ref_output : t -> Frame.t -> unit

val unref_input : t -> Frame.t -> unit
(** Drop one input reference; reclaims the frame if it is a zombie whose
    last reference this was. *)

val unref_output : t -> Frame.t -> unit

val adopt : t -> Frame.t -> unit
(** Resurrect a zombie frame: a new owner (a re-homed region, see the
    paper's region check) claims it before its pending I/O completes, so
    the final unreference must not free it.  No-op on allocated frames.
    @raise Invalid_argument on free frames. *)

val zombie_count : t -> int
(** Number of frames awaiting reclamation (for tests and monitoring). *)

val audit : t -> string list
(** Zero-page bookkeeping, one message per fault: the shared zero page
    is all zero, every [known_zero] frame's bytes are physically that
    page, and no other frame's are.  A raw write into a [known_zero]
    frame's [data] shows up here. *)

val frames : t -> Frame.t array
(** Every frame, indexed by id.  The array is physical memory's own, for
    the invariant checker to read in place: never write to it. *)

val iter_free : t -> (int -> unit) -> unit
(** Apply to each free-list entry's frame id, in allocation order (for
    the invariant checker). *)

val debug_poison : bool ref
(** Poison frames with [0xAA] on allocation (the historical default).
    The fuzzer and the byte-correctness tests set it; production-path
    benchmarks leave it off so [alloc] stays O(1). *)

val skip_deferred_dealloc : bool ref
(** Test-only chaos switch: when set, [deallocate] frees frames even while
    devices hold I/O references — i.e. I/O-deferred page deallocation is
    deliberately broken so the invariant checker can prove it notices.
    Never set outside tests. *)
