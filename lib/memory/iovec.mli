(** Scatter-gather views.

    An iovec is an ordered list of (storage, offset, length) slices over
    byte buffers and page frames.  Building, slicing and concatenating
    views never copies payload bytes; data moves only when a view is
    materialized ({!to_bytes}), blitted into a destination buffer
    ({!blit_to}), or folded over ({!fold}, e.g. for a CRC at the wire
    boundary).  This is the host-level analogue of the paper's own
    lesson: defer the copy until a boundary actually requires the bytes
    to be contiguous. *)

type t

val empty : t
val length : t -> int

val of_bytes : ?off:int -> ?len:int -> bytes -> t
(** View over a byte range ([off] defaults to 0, [len] to the rest).
    The view aliases the buffer: later writes through the buffer are
    visible through the view. *)

val of_frame : ?off:int -> ?len:int -> Frame.t -> t
(** View over a page-frame range; aliases the frame's backing bytes,
    which a [known_zero] frame gets here ({!Frame.writable}) so that the
    view never aliases the shared zero page. *)

val concat : t list -> t
(** Logical concatenation; no bytes move. *)

val sub : t -> off:int -> len:int -> t
(** Sub-view of the byte range [off, off+len); no bytes move.
    @raise Invalid_argument if the range exceeds the view. *)

val blit_to : t -> dst:bytes -> dst_off:int -> unit
(** Copy the whole view into [dst] at [dst_off] in one pass. *)

val to_bytes : t -> bytes
(** Materialize the view as a fresh contiguous buffer. *)

val fold : t -> init:'a -> f:('a -> bytes -> off:int -> len:int -> 'a) -> 'a
(** Fold over the underlying storage slices in order without copying.
    The callback must treat the exposed bytes as read-only. *)

val iter_slices : t -> (bytes -> off:int -> len:int -> unit) -> unit
(** Visit the underlying storage slices in order without copying. *)

val get : t -> int -> char
(** Random access to one byte of the view (bounds-checked). *)
