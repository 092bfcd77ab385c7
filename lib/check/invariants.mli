(** Kernel-state invariant checker for the VM/Genie stack.

    Each predicate audits one cross-layer consistency property of a live
    {!Genie.Host.t} — frame accounting, translation/protection agreement,
    shadow-chain shape, region movability transitions, I/O reference
    counts — and returns structured {!violation} reports rather than a
    bool, so a failing fuzz run can say exactly which invariant broke on
    which frame or region.

    A check reads the host once, into a {!snapshot}: it walks the
    physical-memory frames and free list, the per-VM frame-ownership
    registry, the registered {!Vm.Vm_sys.space_view}s and
    {!Vm.Vm_sys.io_view}s, the host's overlay pool and its
    {!Genie.Ledger}.  Every predicate is a read of that snapshot, so each
    frame-indexed fact is computed once per check, however many
    predicates use it.  Nothing mutates simulation state.  The
    predicates are meant to hold at every quiescent instant — between
    simulation events — including while transfers are in flight.

    The catalogue (see also [docs/CHECKING.md]):

    - [free-list]: free-queue entries are distinct, [Free], and carry no
      references, wiring, mappings or owners; every [Free] frame is on
      the queue.
    - [zombie-reclaim]: zombie frames (I/O-deferred deallocation) still
      have pending I/O, belong to no object, pool or ledger, and are
      unmapped; the zombie counter agrees.
    - [frame-accounting]: every [Allocated] frame has exactly one owner
      among {e memory object} (ownership registry), {e overlay pool} and
      {e kernel ledger}; [Free]/[Zombie] frames have none.
    - [object-slots]: the frame-ownership registry and the objects'
      resident slots form a bijection.
    - [shadow-acyclic]: no shadow chain reachable from a region cycles.
    - [pte-mapping]: every translation points into exactly one region of
      its space, at the frame the region's object chain resolves to, and
      writable mappings never alias a shadow-chain page owned below the
      top object.
    - [region-state]: moved-out regions are fully invalidated; regions
      in a transitional state ([Moving_in]/[Moving_out]) belong to an
      operation in flight; strong system-allocated input targets stay
      hidden while the transfer runs (region hiding).
    - [wiring]: wired or pageable frames are allocated and object-owned;
      wired frames are never pageout-eligible; wired regions belong to
      an operation in flight.
    - [tcow-protection]: while an emulated-copy output is in flight, its
      referenced frames with pending output are nowhere mapped writable.
    - [io-refcounts]: per-frame input/output reference counts and
      per-object input counts equal the multiplicities in the live
      I/O-handle registry.
    - [io-desc-safety]: no frame referenced by a live scatter/gather
      descriptor is on the free list (I/O-deferred page deallocation
      observable; this is the invariant
      {!Memory.Phys_mem.skip_deferred_dealloc} breaks).
    - [pte-rmap]: each space's page-table reverse map agrees with its
      translations ({!Vm.Page_table.check_rmap}). *)

type violation = {
  invariant : string;  (** catalogue name, e.g. ["frame-accounting"] *)
  host : string;  (** host the violation was found on *)
  subject : string;  (** offending entity, e.g. ["frame#42"] *)
  detail : string;  (** human-readable description *)
}

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

type snapshot
(** One host's state as the predicates read it, gathered in a single
    pass: frame-indexed arrays (free-queue, mapping, ownership, pool,
    ledger, reserve and descriptor counts; the last writable mapping),
    each space's regions and translations, the reachable objects and
    the regions of operations in flight.  Frames are read in place. *)

val all : (string * (snapshot -> violation list)) list
(** The full catalogue, name first, in the order above. *)

val check_host : Genie.Host.t -> violation list
(** Run the full catalogue against one host. *)

val check_world : Genie.Host.t list -> violation list
(** Run the full catalogue against every host of a simulated world. *)
