module F = Memory.Frame
module PM = Memory.Phys_mem
module VS = Vm.Vm_sys
module MO = Vm.Memory_object
module PT = Vm.Page_table

type violation = {
  invariant : string;
  host : string;
  subject : string;
  detail : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s %s: %s" v.invariant v.host v.subject v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* {1 The host snapshot}

   Everything the predicates read, gathered in one pass per host per
   check.  Frame-indexed facts live in arrays indexed by frame id; the
   frame array itself is physical memory's own, read in place.  Space
   region and PTE lists, the reachable objects and the in-flight regions
   are each materialised once and shared by every predicate. *)

type space = {
  view : VS.space_view;
  regions : Vm.Region.t list;
  ptes : (int * PT.pte) list;
}

(* The frame-indexed facts, in arrays recycled across checks: a
   snapshot takes its set from the domain's spare, and [check_host]
   puts it back once the snapshot is dead, so no live snapshot shares
   one. *)
type facts = {
  queued : int array;  (* occurrences on the free queue *)
  mapped : bool array;  (* some PTE of some space maps the frame *)
  writable : (int * int) option array;  (* last writable (space, vpn) *)
  owned : bool array;  (* in the frame-ownership registry *)
  pool : int array;
  ledger : int array;
  reserve : int array;
  io_in : int array;  (* live input descriptors referencing the frame *)
  io_out : int array;
}

type snapshot = {
  host : Genie.Host.t;
  frames : F.t array;
  facts : facts;
  spaces : space list;
  io : VS.io_view list;
  entries : Genie.Ledger.entry list;
  reachable : MO.t list;
  in_flight : Vm.Region.t list;
}

(* Objects reachable from the regions of every address space, shadow
   chains included.  The walk is cycle- and sharing-safe. *)
let reachable_objects spaces =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit (o : MO.t) =
    if not (Hashtbl.mem seen o.MO.id) then begin
      Hashtbl.add seen o.MO.id ();
      acc := o :: !acc;
      match o.MO.shadow with Some parent -> visit parent | None -> ()
    end
  in
  List.iter
    (fun s -> List.iter (fun (r : Vm.Region.t) -> visit r.Vm.Region.obj) s.regions)
    spaces;
  !acc

(* Regions an operation in flight accounts for: those a ledger entry
   names directly, plus regions pinned through a live page-referencing
   handle (in-place I/O on application buffers wires the buffer's region
   for the duration without moving it, so the entry exposes only the
   handle): the handle's frames map back to the regions they are mapped
   in. *)
let in_flight_regions spaces entries =
  let direct =
    List.filter_map (fun (e : Genie.Ledger.entry) -> e.Genie.Ledger.region ()) entries
  in
  let via_handle =
    List.concat_map
      (fun (e : Genie.Ledger.entry) ->
        match e.Genie.Ledger.handle () with
        | None -> []
        | Some h -> (
          let sid = Vm.Address_space.id h.Vm.Page_ref.space in
          match List.find_opt (fun s -> s.view.VS.sv_id = sid) spaces with
          | None -> []
          | Some s ->
            List.filter_map
              (fun ((vpn, pte) : int * PT.pte) ->
                if List.memq pte.PT.frame h.Vm.Page_ref.frames then
                  List.find_opt
                    (fun (r : Vm.Region.t) -> Vm.Region.contains_vpn r vpn)
                    s.regions
                else None)
              s.ptes))
      entries
  in
  direct @ via_handle

let spare : facts option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_facts n =
  let spare = Domain.DLS.get spare in
  match !spare with
  | Some fa when Array.length fa.queued = n ->
    spare := None;
    List.iter
      (fun a -> Array.fill a 0 n 0)
      [ fa.queued; fa.pool; fa.ledger; fa.reserve; fa.io_in; fa.io_out ];
    Array.fill fa.mapped 0 n false;
    Array.fill fa.owned 0 n false;
    Array.fill fa.writable 0 n None;
    fa
  | _ ->
    let counts () = Array.make n 0 in
    {
      queued = counts ();
      mapped = Array.make n false;
      writable = Array.make n None;
      owned = Array.make n false;
      pool = counts ();
      ledger = counts ();
      reserve = counts ();
      io_in = counts ();
      io_out = counts ();
    }

let snapshot (host : Genie.Host.t) =
  let vm = host.Genie.Host.vm in
  let frames = PM.frames vm.VS.phys in
  let facts = take_facts (Array.length frames) in
  let bump a id = a.(id) <- a.(id) + 1 in
  PM.iter_free vm.VS.phys (bump facts.queued);
  Hashtbl.iter (fun id _ -> facts.owned.(id) <- true) vm.VS.frame_owner;
  Queue.iter (fun (f : F.t) -> bump facts.pool f.F.id) host.Genie.Host.pool;
  List.iter
    (fun ((f : F.t), k) -> facts.ledger.(f.F.id) <- k)
    (Genie.Ledger.held_frames host.Genie.Host.ledger);
  List.iter (fun (f : F.t) -> facts.reserve.(f.F.id) <- 1) (VS.reserve_frames vm);
  let spaces =
    List.map
      (fun (sv : VS.space_view) ->
        { view = sv; regions = sv.VS.sv_regions (); ptes = sv.VS.sv_ptes () })
      (VS.space_views vm)
  in
  List.iter
    (fun s ->
      List.iter
        (fun ((vpn, pte) : int * PT.pte) ->
          let id = pte.PT.frame.F.id in
          facts.mapped.(id) <- true;
          if pte.PT.prot = Vm.Prot.Read_write then
            facts.writable.(id) <- Some (s.view.VS.sv_id, vpn))
        s.ptes)
    spaces;
  let io = VS.io_views vm in
  List.iter
    (fun (iv : VS.io_view) ->
      let a =
        match iv.VS.io_dir with
        | VS.Io_input -> facts.io_in
        | VS.Io_output -> facts.io_out
      in
      List.iter (fun (f : F.t) -> bump a f.F.id) iv.VS.io_frames)
    io;
  let entries = Genie.Ledger.entries host.Genie.Host.ledger in
  {
    host; frames; facts; spaces; io; entries;
    reachable = reachable_objects spaces;
    in_flight = in_flight_regions spaces entries;
  }

(* {1 Reporting} *)

(* Each predicate collects its findings in [out]: [report out inv s
   subject fmt] adds one violation of [inv] on [s]'s host. *)
let report out inv s subject fmt =
  Printf.ksprintf
    (fun detail ->
      let host = s.host.Genie.Host.name in
      out := { invariant = inv; host; subject; detail } :: !out)
    fmt

let frame_subject (f : F.t) = Printf.sprintf "frame#%d" f.F.id
let region_subject (r : Vm.Region.t) = Printf.sprintf "region#%d" r.Vm.Region.id
let object_subject (o : MO.t) = Printf.sprintf "object#%d" o.MO.id

let state_name = function
  | F.Free -> "free"
  | F.Allocated -> "allocated"
  | F.Zombie -> "zombie"

let in_flight s r = List.memq r s.in_flight

(* {1 free-list} *)

let free_list s =
  let out = ref [] in
  let bad f fmt = report out "free-list" s (frame_subject f) fmt in
  Array.iter
    (fun (f : F.t) ->
      let id = f.F.id in
      for _ = 2 to s.facts.queued.(id) do
        bad f "appears more than once on the free queue"
      done;
      match f.F.state with
      | F.Free ->
        if s.facts.queued.(id) = 0 then
          bad f "state is free but the frame is not on the free queue";
        if F.io_referenced f then
          bad f "free frame carries I/O references (in=%d out=%d)" f.F.input_refs
            f.F.output_refs;
        if f.F.wired <> 0 then bad f "free frame is wired (%d)" f.F.wired;
        if f.F.pageable then bad f "free frame is still marked pageable";
        if s.facts.owned.(id) then
          bad f "free frame still registered to a memory object";
        if s.facts.mapped.(id) then bad f "free frame is still mapped by a page table"
      | F.Allocated | F.Zombie ->
        if s.facts.queued.(id) > 0 then
          bad f "%s frame is on the free queue" (state_name f.F.state))
    s.frames;
  !out

(* {1 zombie-reclaim} *)

let zombie_reclaim s =
  let out = ref [] in
  let bad subject fmt = report out "zombie-reclaim" s subject fmt in
  let zombies = ref 0 in
  Array.iter
    (fun (f : F.t) ->
      if f.F.state = F.Zombie then begin
        let id = f.F.id and subject = frame_subject f in
        incr zombies;
        if not (F.io_referenced f) then
          bad subject
            "zombie frame has no pending I/O references and was never reclaimed";
        if s.facts.owned.(id) then
          bad subject "zombie frame still registered to a memory object";
        if s.facts.pool.(id) > 0 then
          bad subject "zombie frame sits in the overlay pool";
        if s.facts.ledger.(id) > 0 then
          bad subject "zombie frame is still held by the kernel ledger"
      end)
    s.frames;
  let counted = PM.zombie_count s.host.Genie.Host.vm.VS.phys in
  if counted <> !zombies then
    bad "phys-mem" "zombie counter says %d but %d zombie frames exist" counted
      !zombies;
  !out

(* {1 frame-accounting} *)

let frame_accounting s =
  let out = ref [] in
  let bad f fmt = report out "frame-accounting" s (frame_subject f) fmt in
  let describe id object_owned =
    Printf.sprintf "object=%d pool=%d ledger=%d reserve=%d" object_owned
      s.facts.pool.(id) s.facts.ledger.(id) s.facts.reserve.(id)
  in
  Array.iter
    (fun (f : F.t) ->
      let id = f.F.id in
      let object_owned = if s.facts.owned.(id) then 1 else 0 in
      let owners =
        object_owned + s.facts.pool.(id) + s.facts.ledger.(id) + s.facts.reserve.(id)
      in
      match f.F.state with
      | F.Allocated ->
        if owners <> 1 then
          bad f "allocated frame has %d owners (%s), expected exactly 1" owners
            (describe id object_owned)
      | F.Free | F.Zombie ->
        if owners <> 0 then
          bad f "%s frame has %d owners (%s), expected none" (state_name f.F.state)
            owners (describe id object_owned))
    s.frames;
  !out

(* {1 object-slots} *)

let object_slots s =
  let frame_owner = s.host.Genie.Host.vm.VS.frame_owner in
  let out = ref [] in
  let bad subject fmt = report out "object-slots" s subject fmt in
  (* Forward: every registry entry names a resident slot with that frame. *)
  Hashtbl.iter
    (fun fid ((obj : MO.t), idx) ->
      let f = s.frames.(fid) in
      let o = object_subject obj in
      match MO.find_local obj idx with
      | Some (MO.Resident resident) when resident == f -> ()
      | Some (MO.Resident resident) ->
        bad (frame_subject f) "registry says %s page %d, but that slot holds frame#%d"
          o idx resident.F.id
      | Some (MO.Swapped _) ->
        bad (frame_subject f) "registry says %s page %d, but that slot is swapped out"
          o idx
      | None ->
        bad (frame_subject f)
          "registry says %s page %d, but the object has no such page" o idx)
    frame_owner;
  (* Reverse: every resident slot of a reachable object is registered. *)
  List.iter
    (fun (obj : MO.t) ->
      Hashtbl.iter
        (fun idx slot ->
          match slot with
          | MO.Swapped _ -> ()
          | MO.Resident (f : F.t) -> (
            match Hashtbl.find_opt frame_owner f.F.id with
            | Some (owner, i) when owner == obj && i = idx -> ()
            | Some (owner, i) ->
              bad (object_subject obj)
                "page %d holds frame#%d, but the registry maps it to %s page %d"
                idx f.F.id (object_subject owner) i
            | None ->
              bad (object_subject obj)
                "page %d holds frame#%d, which is not in the ownership registry"
                idx f.F.id))
        obj.MO.pages)
    s.reachable;
  !out

(* {1 shadow-acyclic} *)

let shadow_acyclic s =
  let out = ref [] in
  List.iter
    (fun sp ->
      List.iter
        (fun (r : Vm.Region.t) ->
          let seen = Hashtbl.create 8 in
          let rec walk (o : MO.t) =
            if Hashtbl.mem seen o.MO.id then
              report out "shadow-acyclic" s (region_subject r)
                "shadow chain cycles back to %s" (object_subject o)
            else begin
              Hashtbl.add seen o.MO.id ();
              match o.MO.shadow with Some parent -> walk parent | None -> ()
            end
          in
          walk r.Vm.Region.obj)
        sp.regions)
    s.spaces;
  !out

(* {1 pte-mapping} *)

let pte_mapping s =
  let out = ref [] in
  List.iter
    (fun sp ->
      List.iter
        (fun ((vpn, pte) : int * PT.pte) ->
          let bad fmt =
            report out "pte-mapping" s
              (Printf.sprintf "space#%d vpn#%d" sp.view.VS.sv_id vpn)
              fmt
          in
          let mapped = pte.PT.frame in
          match List.filter (fun r -> Vm.Region.contains_vpn r vpn) sp.regions with
          | [] -> bad "translation to frame#%d lies outside every region" mapped.F.id
          | _ :: _ :: _ -> bad "translation covered by more than one region"
          | [ r ] -> (
            let idx = vpn - r.Vm.Region.start_vpn in
            if mapped.F.state <> F.Allocated then
              bad "maps frame#%d in state %s" mapped.F.id (state_name mapped.F.state);
            match MO.find_chain r.Vm.Region.obj idx with
            | Some (owner, MO.Resident f) when f == mapped ->
              if pte.PT.prot = Vm.Prot.Read_write && owner != r.Vm.Region.obj then
                bad "writable mapping of frame#%d aliases shadow-chain %s" f.F.id
                  (object_subject owner)
            | Some (_, MO.Resident f) ->
              bad "maps frame#%d but %s resolves page %d to frame#%d" mapped.F.id
                (region_subject r) idx f.F.id
            | Some (_, MO.Swapped _) ->
              bad "maps frame#%d but the object chain says the page is swapped out"
                mapped.F.id
            | None ->
              bad "maps frame#%d but the object chain has no such page" mapped.F.id))
        sp.ptes)
    s.spaces;
  !out

(* {1 region-state} *)

let region_state s =
  let out = ref [] in
  let bad r fmt = report out "region-state" s (region_subject r) fmt in
  let exposed (r : Vm.Region.t) sp text =
    List.iter
      (fun ((vpn, pte) : int * PT.pte) ->
        if Vm.Region.contains_vpn r vpn && pte.PT.prot <> Vm.Prot.No_access then
          bad r text vpn (Format.asprintf "%a" Vm.Prot.pp pte.PT.prot))
      sp.ptes
  in
  List.iter
    (fun sp ->
      List.iter
        (fun (r : Vm.Region.t) ->
          match r.Vm.Region.state with
          | Vm.Region.Moved_out ->
            exposed r sp "moved-out region leaves vpn#%d accessible (%s)"
          | Vm.Region.Moving_in | Vm.Region.Moving_out ->
            if not (in_flight s r) then
              bad r "region is %s but no operation is in flight for it"
                (Vm.Region.movability_name r.Vm.Region.state)
          | Vm.Region.Unmovable | Vm.Region.Moved_in
          | Vm.Region.Weakly_moved_out -> ())
        sp.regions)
    s.spaces;
  (* Region hiding: a strong system-allocated input target (emulated
     move) stays inaccessible while the transfer is in flight. *)
  List.iter
    (fun (e : Genie.Ledger.entry) ->
      match (e.Genie.Ledger.dir, e.Genie.Ledger.region ()) with
      | (Genie.Ledger.Input, Some r)
        when r.Vm.Region.valid
             && e.Genie.Ledger.sem.Genie.Semantics.integrity
                = Genie.Semantics.Strong
             && Genie.Semantics.system_allocated e.Genie.Ledger.sem ->
        List.iter
          (fun sp ->
            if List.memq r sp.regions then
              exposed r sp "hidden input region exposes vpn#%d (%s) mid-transfer")
          s.spaces
      | _ -> ())
    s.entries;
  !out

(* {1 wiring} *)

let wiring s =
  let pageout = s.host.Genie.Host.vm.VS.pageout in
  let out = ref [] in
  let bad subject fmt = report out "wiring" s subject fmt in
  let bad_frame f fmt = bad (frame_subject f) fmt in
  Array.iter
    (fun (f : F.t) ->
      let owned = s.facts.owned.(f.F.id) in
      if f.F.wired < 0 then bad_frame f "negative wire count %d" f.F.wired;
      if f.F.wired > 0 then begin
        if f.F.state <> F.Allocated then
          bad_frame f "wired frame is %s" (state_name f.F.state);
        if not owned then bad_frame f "wired frame belongs to no memory object";
        if Memory.Pageout.eligible pageout f then
          bad_frame f "wired frame is pageout-eligible"
      end;
      if f.F.pageable then begin
        if f.F.state <> F.Allocated then
          bad_frame f "pageable frame is %s" (state_name f.F.state);
        if not owned then bad_frame f "pageable frame belongs to no memory object"
      end)
    s.frames;
  List.iter
    (fun sp ->
      List.iter
        (fun (r : Vm.Region.t) ->
          let wired = r.Vm.Region.wired in
          if wired < 0 then
            bad (region_subject r) "negative region wire count %d" wired;
          if wired > 0 && not (in_flight s r) then
            bad (region_subject r) "region wired (%d) with no operation in flight"
              wired)
        sp.regions)
    s.spaces;
  !out

(* {1 tcow-protection} *)

let tcow_protection s =
  let out = ref [] in
  List.iter
    (fun (e : Genie.Ledger.entry) ->
      if
        e.Genie.Ledger.dir = Genie.Ledger.Output
        && Genie.Semantics.equal e.Genie.Ledger.sem Genie.Semantics.emulated_copy
      then
        match e.Genie.Ledger.handle () with
        | None -> ()
        | Some h ->
          List.iter
            (fun (f : F.t) ->
              match s.facts.writable.(f.F.id) with
              | Some (space_id, vpn) when f.F.output_refs > 0 ->
                report out "tcow-protection" s (frame_subject f)
                  "emulated-copy output in flight, yet space#%d vpn#%d maps the \
                   frame writable"
                  space_id vpn
              | _ -> ())
            h.Vm.Page_ref.frames)
    s.entries;
  !out

(* {1 io-refcounts} *)

let io_refcounts s =
  let out = ref [] in
  let bad subject fmt = report out "io-refcounts" s subject fmt in
  Array.iter
    (fun (f : F.t) ->
      let ein = s.facts.io_in.(f.F.id) and eout = s.facts.io_out.(f.F.id) in
      if f.F.input_refs <> ein then
        bad (frame_subject f)
          "input_refs=%d but %d live input descriptors reference the frame"
          f.F.input_refs ein;
      if f.F.output_refs <> eout then
        bad (frame_subject f)
          "output_refs=%d but %d live output descriptors reference the frame"
          f.F.output_refs eout)
    s.frames;
  (* Per-object input totals: reachable objects and any object named by a
     live handle must agree with the registry. *)
  let obj_counts = Hashtbl.create 16 and objs = Hashtbl.create 16 in
  let expected id = Option.value ~default:0 (Hashtbl.find_opt obj_counts id) in
  List.iter
    (fun (iv : VS.io_view) ->
      List.iter
        (fun ((o : MO.t), n) ->
          Hashtbl.replace objs o.MO.id o;
          Hashtbl.replace obj_counts o.MO.id (n + expected o.MO.id))
        iv.VS.io_objects)
    s.io;
  List.iter
    (fun (o : MO.t) ->
      if not (Hashtbl.mem objs o.MO.id) then Hashtbl.add objs o.MO.id o)
    s.reachable;
  Hashtbl.iter
    (fun id (o : MO.t) ->
      if o.MO.input_refs <> expected id then
        bad (object_subject o)
          "object input_refs=%d but live descriptors account for %d" o.MO.input_refs
          (expected id))
    objs;
  !out

(* {1 io-desc-safety} *)

let io_desc_safety s =
  let out = ref [] in
  List.iter
    (fun (iv : VS.io_view) ->
      List.iter
        (fun (f : F.t) ->
          if f.F.state = F.Free then
            report out "io-desc-safety" s (frame_subject f)
              "frame is on the free list while %s descriptor io#%d still \
               references it (I/O-deferred deallocation violated)"
              (match iv.VS.io_dir with
              | VS.Io_input -> "an input"
              | VS.Io_output -> "an output")
              iv.VS.io_id)
        iv.VS.io_frames)
    s.io;
  !out

(* {1 pte-rmap} *)

let pte_rmap s =
  let out = ref [] in
  List.iter
    (fun sp ->
      List.iter
        (report out "pte-rmap" s (Printf.sprintf "space#%d" sp.view.VS.sv_id) "%s")
        (sp.view.VS.sv_rmap_errors ()))
    s.spaces;
  List.rev !out

(* {1 Catalogue} *)

let all =
  [
    ("free-list", free_list);
    ("zombie-reclaim", zombie_reclaim);
    ("frame-accounting", frame_accounting);
    ("object-slots", object_slots);
    ("shadow-acyclic", shadow_acyclic);
    ("pte-mapping", pte_mapping);
    ("region-state", region_state);
    ("wiring", wiring);
    ("tcow-protection", tcow_protection);
    ("io-refcounts", io_refcounts);
    ("io-desc-safety", io_desc_safety);
    ("pte-rmap", pte_rmap);
  ]

let check_host host =
  let s = snapshot host in
  let vs = List.concat_map (fun (_, f) -> f s) all in
  Domain.DLS.get spare := Some s.facts;
  vs

let check_world hosts = List.concat_map check_host hosts
