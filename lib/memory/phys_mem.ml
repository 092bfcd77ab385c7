type t = {
  frames : Frame.t array;
  zero_page : bytes;
  free : int Queue.t;
  page_size : int;
  mutable zombies : int;
  mutable trace : Simcore.Tracer.scope option;
}

let traced t f =
  match t.trace with
  | Some s when Simcore.Tracer.on s -> f s
  | _ -> ()

(* Counters also accumulate in count-only mode ([add_counter]
   self-guards), so they stay out of the [traced] event closures. *)
let count t name =
  match t.trace with
  | Some s -> Simcore.Tracer.add_counter s name
  | None -> ()

exception Out_of_frames

let create spec =
  let page_size = spec.Machine.Machine_spec.page_size in
  let n = Machine.Machine_spec.frame_count spec in
  (* Every frame shares this page until its first write: set-up costs
     O(frames), not O(memory). *)
  let zero_page = Bytes.make page_size '\x00' in
  let frames =
    Array.init n (fun id ->
        {
          Frame.id;
          data = zero_page;
          input_refs = 0;
          output_refs = 0;
          wired = 0;
          state = Frame.Free;
          pageable = false;
          known_zero = true;
        })
  in
  let free = Queue.create () in
  Array.iter (fun (f : Frame.t) -> Queue.add f.Frame.id free) frames;
  { frames; zero_page; free; page_size; zombies = 0; trace = None }

let page_size t = t.page_size
let set_trace_scope t scope = t.trace <- Some scope
let total_frames t = Array.length t.frames
let free_frames t = Queue.length t.free
let frames t = t.frames

(* Debug switch: poison freshly allocated frames with 0xAA so consumers
   that rely on uninitialized frame contents trip byte-correctness
   checks.  Off by default — the fuzzer and the poisoning tests turn it
   on — so the common [alloc] is O(1) instead of O(page_size). *)
let debug_poison = ref false

let take_free t =
  match Queue.take_opt t.free with
  | None -> raise Out_of_frames
  | Some id ->
    let frame = t.frames.(id) in
    assert (frame.Frame.state = Frame.Free);
    frame.Frame.state <- Frame.Allocated;
    count t "frame_allocs";
    frame

let alloc t =
  let frame = take_free t in
  if !debug_poison then Frame.fill frame '\xAA';
  frame

(* [Frame.fill] skips frames that still share the zero page. *)
let alloc_zeroed t =
  let frame = take_free t in
  Frame.fill frame '\x00';
  frame

let release t (frame : Frame.t) =
  frame.Frame.state <- Frame.Free;
  frame.Frame.pageable <- false;
  frame.Frame.wired <- 0;
  Queue.add frame.Frame.id t.free;
  count t "frame_frees"

let alloc_many t n =
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match alloc t with
      | frame -> take (frame :: acc) (k - 1)
      | exception Out_of_frames ->
        (* Don't leak the partial batch: hand every frame already taken
           back to the free list before reporting exhaustion. *)
        List.iter (fun f -> release t f) acc;
        raise Out_of_frames
  in
  take [] n

(* Chaos switch for the invariant checker: pretend I/O-deferred page
   deallocation was never implemented, freeing frames devices still
   reference.  The io-desc-safety invariant must catch this. *)
let skip_deferred_dealloc = ref false

let deallocate t (frame : Frame.t) =
  match frame.Frame.state with
  | Frame.Free -> invalid_arg "Phys_mem.deallocate: frame already free"
  | Frame.Zombie -> invalid_arg "Phys_mem.deallocate: frame already a zombie"
  | Frame.Allocated ->
    if Frame.io_referenced frame && not !skip_deferred_dealloc then begin
      frame.Frame.state <- Frame.Zombie;
      t.zombies <- t.zombies + 1;
      count t "deferred_deallocs";
      traced t (fun s ->
          Simcore.Tracer.instant s "frame.deferred_dealloc"
            ~args:[ ("frame", Simcore.Tracer.Int frame.Frame.id) ])
    end
    else release t frame

let ref_input _t (frame : Frame.t) = frame.Frame.input_refs <- frame.Frame.input_refs + 1
let ref_output _t (frame : Frame.t) = frame.Frame.output_refs <- frame.Frame.output_refs + 1

let reclaim_if_due t (frame : Frame.t) =
  if frame.Frame.state = Frame.Zombie && not (Frame.io_referenced frame) then begin
    t.zombies <- t.zombies - 1;
    release t frame
  end

let unref_input t (frame : Frame.t) =
  if frame.Frame.input_refs <= 0 then invalid_arg "Phys_mem.unref_input: no reference";
  frame.Frame.input_refs <- frame.Frame.input_refs - 1;
  reclaim_if_due t frame

let unref_output t (frame : Frame.t) =
  if frame.Frame.output_refs <= 0 then invalid_arg "Phys_mem.unref_output: no reference";
  frame.Frame.output_refs <- frame.Frame.output_refs - 1;
  reclaim_if_due t frame

let adopt t (frame : Frame.t) =
  match frame.Frame.state with
  | Frame.Zombie ->
    t.zombies <- t.zombies - 1;
    frame.Frame.state <- Frame.Allocated
  | Frame.Allocated -> ()
  | Frame.Free -> invalid_arg "Phys_mem.adopt: frame is free"

let zombie_count t = t.zombies

let audit t =
  let out = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if not (Bytes.for_all (fun c -> c = '\x00') t.zero_page) then
    bad "the shared zero page holds a nonzero byte";
  Array.iter
    (fun (f : Frame.t) ->
      match (f.Frame.known_zero, f.Frame.data == t.zero_page) with
      | true, false ->
        bad "frame#%d is known zero but has private bytes" f.Frame.id
      | false, true ->
        bad "frame#%d shares the zero page but is not known zero" f.Frame.id
      | _ -> ())
    t.frames;
  List.rev !out

let iter_free t f = Queue.iter f t.free
