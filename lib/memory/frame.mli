(** Physical page frames.

    A frame carries real backing bytes — all simulated I/O moves data
    through frames, so end-to-end byte correctness is checkable.  The
    bytes are made on demand: a frame starts out sharing its physical
    memory's one zero page and gets private bytes at its first write
    (zero-fill-on-demand for the simulator's own memory).  Frames
    also carry the per-page input and output reference counts that
    Genie's page referencing scheme maintains (Section 3.1 of the paper):
    a page with a nonzero count has pending DMA and must not be handed to
    another process, and a page with nonzero {e input} count must not be
    paged out (input-disabled pageout, Section 3.2). *)

type state =
  | Free  (** on the free list *)
  | Allocated  (** owned by a memory object or kernel buffer *)
  | Zombie
      (** deallocated while I/O was pending; reclaimed when the last I/O
          reference is dropped (I/O-deferred page deallocation) *)

type t = {
  id : int;
  mutable data : bytes;
      (** the frame's contents, for reading.  While [known_zero] holds this
          is the shared zero page, so never write it directly: write
          through {!writable}, {!fill}, {!blit_in} or {!copy_contents}. *)
  mutable input_refs : int;
  mutable output_refs : int;
  mutable wired : int;
  mutable state : state;
  mutable pageable : bool;  (** on the pageout daemon's candidate list *)
  mutable known_zero : bool;
      (** [data] is the shared zero page: the frame was never written.
          Cleared by {!writable}, and never set again — a frame keeps its
          private bytes once it has them.  [Phys_mem.alloc_zeroed] hands
          such a frame out in O(1). *)
}

val io_referenced : t -> bool
(** True if the frame has pending input or output references. *)

val page_size : t -> int

val writable : t -> bytes
(** The frame's bytes, for writing: a [known_zero] frame first gets
    private zeroed bytes.  Callers that keep the result (views, DMA
    targets) see every later write, which the zero page could not
    promise. *)

val fill : t -> char -> unit
(** Overwrite the whole frame with one byte (used for zeroing and for
    poisoning).  Zeroing a [known_zero] frame does nothing. *)

val blit_in : t -> dst_off:int -> src:bytes -> src_off:int -> len:int -> unit
val blit_out : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val copy_contents : src:t -> dst:t -> unit
(** Copy a whole page; from a [known_zero] source this is {!fill}
    [dst '\000']. *)

val pp : Format.formatter -> t -> unit
