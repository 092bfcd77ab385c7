(* Tests for the physical memory substrate: frames, the free list,
   I/O-deferred page deallocation, the pageout daemon's input-disabled
   policy, descriptors and the backing store. *)

let spec = { Machine.Machine_spec.micron_p166 with Machine.Machine_spec.memory_mb = 1 }
(* 256 frames: big enough for tests, small enough to exhaust. *)

let fresh () = Memory.Phys_mem.create spec

let with_poison f =
  Memory.Phys_mem.debug_poison := true;
  Fun.protect ~finally:(fun () -> Memory.Phys_mem.debug_poison := false) f

let test_alloc_free () =
  with_poison @@ fun () ->
  let pm = fresh () in
  let total = Memory.Phys_mem.total_frames pm in
  Alcotest.(check int) "256 frames" 256 total;
  let f = Memory.Phys_mem.alloc pm in
  Alcotest.(check int) "one taken" (total - 1) (Memory.Phys_mem.free_frames pm);
  Alcotest.(check char) "poisoned" '\xAA' (Bytes.get f.Memory.Frame.data 0);
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "returned" total (Memory.Phys_mem.free_frames pm)

let test_alloc_zeroed () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc_zeroed pm in
  Alcotest.(check bool) "all zero" true
    (Bytes.for_all (fun c -> c = '\x00') f.Memory.Frame.data)

let test_exhaustion () =
  let pm = fresh () in
  let _all = Memory.Phys_mem.alloc_many pm 256 in
  Alcotest.check_raises "out of frames" Memory.Phys_mem.Out_of_frames (fun () ->
      ignore (Memory.Phys_mem.alloc pm))

let test_double_free_raises () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.deallocate pm f;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.deallocate: frame already free") (fun () ->
      Memory.Phys_mem.deallocate pm f)

let test_deferred_deallocation () =
  (* The heart of Section 3.1: a frame deallocated with pending I/O must
     not reach the free list until the last reference drops. *)
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Bytes.set (Memory.Frame.writable f) 0 'D';
  Memory.Phys_mem.ref_output pm f;
  Memory.Phys_mem.ref_output pm f;
  let free_before = Memory.Phys_mem.free_frames pm in
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "not freed yet" free_before (Memory.Phys_mem.free_frames pm);
  Alcotest.(check int) "zombie" 1 (Memory.Phys_mem.zombie_count pm);
  Alcotest.(check char) "data still readable by DMA" 'D'
    (Bytes.get f.Memory.Frame.data 0);
  Memory.Phys_mem.unref_output pm f;
  Alcotest.(check int) "still held" free_before (Memory.Phys_mem.free_frames pm);
  Memory.Phys_mem.unref_output pm f;
  Alcotest.(check int) "reclaimed" (free_before + 1) (Memory.Phys_mem.free_frames pm);
  Alcotest.(check int) "no zombies" 0 (Memory.Phys_mem.zombie_count pm)

let test_adopt_zombie () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.ref_input pm f;
  Memory.Phys_mem.deallocate pm f;
  Alcotest.(check int) "zombie" 1 (Memory.Phys_mem.zombie_count pm);
  Memory.Phys_mem.adopt pm f;
  Alcotest.(check int) "adopted" 0 (Memory.Phys_mem.zombie_count pm);
  let free = Memory.Phys_mem.free_frames pm in
  Memory.Phys_mem.unref_input pm f;
  Alcotest.(check int) "unref does not free adopted frame" free
    (Memory.Phys_mem.free_frames pm)

let test_alloc_many_partial_exhaustion () =
  (* Regression: a batch that ran out of frames mid-way used to leak the
     partially allocated prefix, permanently shrinking the free list. *)
  let pm = fresh () in
  let total = Memory.Phys_mem.total_frames pm in
  let keep = Memory.Phys_mem.alloc_many pm (total - 6) in
  Alcotest.(check int) "six left" 6 (Memory.Phys_mem.free_frames pm);
  Alcotest.check_raises "batch too large" Memory.Phys_mem.Out_of_frames
    (fun () -> ignore (Memory.Phys_mem.alloc_many pm 10));
  Alcotest.(check int) "partial batch returned" 6
    (Memory.Phys_mem.free_frames pm);
  (* The survivors are genuinely allocatable. *)
  let rest = Memory.Phys_mem.alloc_many pm 6 in
  Alcotest.(check int) "empty" 0 (Memory.Phys_mem.free_frames pm);
  List.iter (Memory.Phys_mem.deallocate pm) (keep @ rest)

let test_alloc_zeroed_after_reuse () =
  (* known_zero soundness: a frame that was handed out, dirtied and freed
     must be re-zeroed by alloc_zeroed; only frames still sharing the
     zero page may skip the fill. *)
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Bytes.set (Memory.Frame.writable f) 17 'X';
  Memory.Phys_mem.deallocate pm f;
  let total = Memory.Phys_mem.total_frames pm in
  let all_zero (g : Memory.Frame.t) =
    Bytes.for_all (fun c -> c = '\x00') g.Memory.Frame.data
  in
  (* Drain the whole free list; every zeroed allocation (including the
     recycled dirty frame, wherever the queue put it) must be clean. *)
  for _ = 1 to total do
    Alcotest.(check bool) "zeroed" true (all_zero (Memory.Phys_mem.alloc_zeroed pm))
  done

let test_buf_pool_classes () =
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:100 in
  Alcotest.(check int) "rounded to 128" 128 (Bytes.length b);
  Alcotest.(check int) "tiny rounds to 64" 64
    (Bytes.length (Memory.Buf_pool.take pool ~len:1));
  Alcotest.(check int) "exact class kept" 4096
    (Bytes.length (Memory.Buf_pool.take pool ~len:4096));
  (* Oversized requests bypass the classes entirely. *)
  let big = Memory.Buf_pool.take pool ~len:(1 lsl 20) in
  Alcotest.(check int) "oversize exact" (1 lsl 20) (Bytes.length big);
  Memory.Buf_pool.give pool big;
  Alcotest.(check bool) "oversize not pooled" false
    (Memory.Buf_pool.take pool ~len:(1 lsl 20) == big)

let test_buf_pool_reuse () =
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:512 in
  Memory.Buf_pool.give pool b;
  let b' = Memory.Buf_pool.take pool ~len:300 in
  Alcotest.(check bool) "same buffer recycled" true (b == b');
  Alcotest.(check int) "one hit" 1 (Memory.Buf_pool.hits pool);
  Memory.Buf_pool.give pool b';
  Alcotest.(check bool) "different class misses" false
    (Memory.Buf_pool.take pool ~len:64 == b')

let test_buf_pool_poison () =
  Memory.Buf_pool.debug_poison := true;
  Fun.protect ~finally:(fun () -> Memory.Buf_pool.debug_poison := false)
  @@ fun () ->
  let pool = Memory.Buf_pool.create () in
  let b = Memory.Buf_pool.take pool ~len:64 in
  Bytes.fill b 0 64 'S';
  Memory.Buf_pool.give pool b;
  (* A consumer that peeks at recycled bytes before overwriting them sees
     poison, never stale payload. *)
  Alcotest.(check char) "poisoned on give" '\xA5' (Bytes.get b 0);
  Alcotest.(check bool) "fully poisoned" true
    (Bytes.for_all (fun c -> c = '\xA5') b)

let test_unref_without_ref_raises () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  Alcotest.check_raises "no ref" (Invalid_argument "Phys_mem.unref_input: no reference")
    (fun () -> Memory.Phys_mem.unref_input pm f)

(* {1 Io_desc} *)

let make_frame pm s =
  let f = Memory.Phys_mem.alloc pm in
  Memory.Frame.blit_in f ~dst_off:0 ~src:(Bytes.of_string s) ~src_off:0
    ~len:(String.length s);
  f

let test_desc_gather_scatter () =
  let pm = fresh () in
  let f1 = make_frame pm "AAAABBBB" and f2 = make_frame pm "CCCCDDDD" in
  let desc =
    Memory.Io_desc.of_segs
      [
        { Memory.Io_desc.frame = f1; off = 4; len = 4 };
        { Memory.Io_desc.frame = f2; off = 0; len = 4 };
      ]
  in
  Alcotest.(check int) "total" 8 (Memory.Io_desc.total_len desc);
  Alcotest.(check string) "gather" "BBBBCCCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:0 ~len:8));
  Alcotest.(check string) "gather middle" "BCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:3 ~len:3));
  Memory.Io_desc.scatter desc ~off:2 ~src:(Bytes.of_string "xyz") ~src_off:0 ~len:3;
  Alcotest.(check string) "scatter across segs" "BBxyzCC"
    (Bytes.to_string (Memory.Io_desc.gather desc ~off:0 ~len:7));
  Alcotest.(check string) "frame 1 updated" "AAAABBxy"
    (Bytes.sub_string f1.Memory.Frame.data 0 8);
  Alcotest.(check string) "frame 2 updated" "zCCC"
    (Bytes.sub_string f2.Memory.Frame.data 0 4)

let test_desc_bounds () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  let desc = Memory.Io_desc.single f ~off:0 ~len:16 in
  Alcotest.check_raises "gather out of bounds"
    (Invalid_argument "Io_desc: range out of bounds") (fun () ->
      ignore (Memory.Io_desc.gather desc ~off:10 ~len:10));
  Alcotest.check_raises "bad segment"
    (Invalid_argument "Io_desc.of_segs: segment out of frame bounds") (fun () ->
      ignore (Memory.Io_desc.of_segs [ { Memory.Io_desc.frame = f; off = 4090; len = 100 } ]))

let test_desc_frames_dedup () =
  let pm = fresh () in
  let f = Memory.Phys_mem.alloc pm in
  let desc =
    Memory.Io_desc.of_segs
      [
        { Memory.Io_desc.frame = f; off = 0; len = 8 };
        { Memory.Io_desc.frame = f; off = 16; len = 8 };
      ]
  in
  Alcotest.(check int) "dedup" 1 (List.length (Memory.Io_desc.frames desc))

let desc_roundtrip =
  QCheck.Test.make ~name:"io_desc scatter/gather roundtrip" ~count:100
    QCheck.(pair (int_bound 4000) (int_bound 95))
    (fun (len, off) ->
      let pm = fresh () in
      let f1 = Memory.Phys_mem.alloc pm and f2 = Memory.Phys_mem.alloc pm in
      let len = max 1 len in
      let seg1 = min len (4096 - off) in
      let segs =
        if seg1 = len then [ { Memory.Io_desc.frame = f1; off; len } ]
        else
          [
            { Memory.Io_desc.frame = f1; off; len = seg1 };
            { Memory.Io_desc.frame = f2; off = 0; len = len - seg1 };
          ]
      in
      let desc = Memory.Io_desc.of_segs segs in
      let payload = Bytes.init len (fun i -> Char.chr ((i * 31) land 0xFF)) in
      Memory.Io_desc.scatter desc ~off:0 ~src:payload ~src_off:0 ~len;
      Bytes.equal payload (Memory.Io_desc.gather desc ~off:0 ~len))

(* {1 Pageout: input-disabled policy} *)

let test_pageout_input_disabled () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  let evicted = ref [] in
  Memory.Pageout.set_evict_hook daemon (fun f ->
      evicted := f.Memory.Frame.id :: !evicted;
      true);
  let with_input = Memory.Phys_mem.alloc pm in
  let with_output = Memory.Phys_mem.alloc pm in
  let plain = Memory.Phys_mem.alloc pm in
  let wired = Memory.Phys_mem.alloc pm in
  Memory.Phys_mem.ref_input pm with_input;
  Memory.Phys_mem.ref_output pm with_output;
  wired.Memory.Frame.wired <- 1;
  List.iter (Memory.Pageout.register daemon) [ with_input; with_output; plain; wired ];
  Alcotest.(check bool) "input-referenced not eligible" false
    (Memory.Pageout.eligible daemon with_input);
  Alcotest.(check bool) "output-referenced IS eligible" true
    (Memory.Pageout.eligible daemon with_output);
  Alcotest.(check bool) "wired not eligible" false
    (Memory.Pageout.eligible daemon wired);
  let n = Memory.Pageout.scan daemon ~target:10 in
  Alcotest.(check int) "two evicted" 2 n;
  Alcotest.(check bool) "output frame evicted" true
    (List.mem with_output.Memory.Frame.id !evicted);
  Alcotest.(check bool) "plain frame evicted" true
    (List.mem plain.Memory.Frame.id !evicted);
  Alcotest.(check bool) "input frame survived" true
    (not (List.mem with_input.Memory.Frame.id !evicted))

let test_pageout_unregister () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  Memory.Pageout.set_evict_hook daemon (fun _ -> true);
  let f = Memory.Phys_mem.alloc pm in
  Memory.Pageout.register daemon f;
  Memory.Pageout.unregister daemon f;
  Alcotest.(check int) "nothing evicted" 0 (Memory.Pageout.scan daemon ~target:5)

let test_pageout_target () =
  let pm = fresh () in
  let daemon = Memory.Pageout.create () in
  Memory.Pageout.set_evict_hook daemon (fun _ -> true);
  List.iter (Memory.Pageout.register daemon) (Memory.Phys_mem.alloc_many pm 5);
  Alcotest.(check int) "respects target" 2 (Memory.Pageout.scan daemon ~target:2);
  Alcotest.(check int) "remaining" 3 (Memory.Pageout.scan daemon ~target:10)

(* {1 Backing store} *)

let test_backing_store () =
  let bs = Memory.Backing_store.create ~page_size:4096 in
  let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let slot = Memory.Backing_store.page_out bs page in
  Alcotest.(check int) "one live slot" 1 (Memory.Backing_store.live_slots bs);
  Alcotest.(check bytes) "peek" page (Memory.Backing_store.peek bs slot);
  let dst = Bytes.create 4096 in
  Memory.Backing_store.page_in bs slot dst;
  Alcotest.(check bytes) "roundtrip" page dst;
  Alcotest.(check int) "slot freed" 0 (Memory.Backing_store.live_slots bs);
  Alcotest.check_raises "stale slot"
    (Invalid_argument "Backing_store: unknown or freed slot") (fun () ->
      ignore (Memory.Backing_store.peek bs slot))

let test_backing_store_wrong_size () =
  let bs = Memory.Backing_store.create ~page_size:4096 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Backing_store.page_out: wrong page size") (fun () ->
      ignore (Memory.Backing_store.page_out bs (Bytes.create 100)))

(* {1 Zero page} *)

let test_zero_page_on_demand () =
  let pm = fresh () in
  let zero = (Memory.Phys_mem.frames pm).(0).Memory.Frame.data in
  let shares_zero (f : Memory.Frame.t) =
    f.Memory.Frame.known_zero && f.Memory.Frame.data == zero
  in
  Alcotest.(check bool) "every frame starts on one shared page" true
    (Array.for_all shares_zero (Memory.Phys_mem.frames pm));
  let f = Memory.Phys_mem.alloc pm in
  Alcotest.(check bool) "hand-out keeps the zero page" true (shares_zero f);
  Memory.Frame.fill f '\x00';
  Alcotest.(check bool) "zeroing a known-zero frame copies nothing" true
    (shares_zero f);
  Memory.Frame.blit_in f ~dst_off:5 ~src:(Bytes.of_string "ab") ~src_off:0 ~len:2;
  Alcotest.(check bool) "first write gives private bytes" true
    ((not f.Memory.Frame.known_zero) && f.Memory.Frame.data != zero);
  Alcotest.(check string) "written bytes over zeros" "\x00ab\x00"
    (Bytes.sub_string f.Memory.Frame.data 4 4);
  (* A view aliases the frame: it must see writes made after it. *)
  let g = Memory.Phys_mem.alloc pm in
  let v = Memory.Iovec.of_frame g ~off:0 ~len:8 in
  Memory.Frame.blit_in g ~dst_off:0 ~src:(Bytes.of_string "z") ~src_off:0 ~len:1;
  Alcotest.(check char) "view sees a later write" 'z' (Memory.Iovec.get v 0);
  let h = Memory.Phys_mem.alloc pm and k = Memory.Phys_mem.alloc pm in
  Memory.Frame.copy_contents ~src:h ~dst:k;
  Alcotest.(check bool) "zero-to-zero copy stays on the zero page" true
    (shares_zero k);
  Memory.Frame.copy_contents ~src:f ~dst:k;
  Alcotest.(check bool) "copying real bytes gives private bytes" true
    (Bytes.equal k.Memory.Frame.data f.Memory.Frame.data && not (shares_zero k));
  let z = Memory.Phys_mem.alloc_zeroed pm in
  Alcotest.(check bool) "alloc_zeroed hands out the zero page" true
    (shares_zero z);
  with_poison (fun () ->
      let p = Memory.Phys_mem.alloc pm in
      Alcotest.(check bool) "poison gives private bytes" false (shares_zero p));
  Alcotest.(check bool) "the zero page is still zero" true
    (Bytes.for_all (fun c -> c = '\x00') zero);
  Alcotest.(check (list string)) "audit clean" [] (Memory.Phys_mem.audit pm)

(* Mutations the audit must flag: a raw write into a known-zero frame's
   bytes (which lands on the shared page), a private page still claimed
   known zero, and the shared page without the claim. *)
let test_zero_page_audit_mutations () =
  let flagged what mutate =
    let pm = fresh () in
    let f = Memory.Phys_mem.alloc pm in
    mutate f;
    Alcotest.(check bool) (what ^ " is flagged") true
      (Memory.Phys_mem.audit pm <> [])
  in
  flagged "raw write into a known-zero frame" (fun f ->
      Bytes.set f.Memory.Frame.data 0 'X');
  flagged "private bytes claimed known zero" (fun f ->
      f.Memory.Frame.data <- Bytes.make (Bytes.length f.Memory.Frame.data) '\x00');
  flagged "zero page without the claim" (fun f ->
      f.Memory.Frame.known_zero <- false)

(* File_io on a file twice the page cache: buffered writes at arbitrary
   byte offsets (partial pages take the read-modify-write path), reads
   checked against a flat model, fsyncs and cache drops. *)
let storage_replay ~seed =
  let w = Genie.World.create () in
  let fio =
    Genie.File_io.create
      ~config:{ Store.Page_cache.default_config with Store.Page_cache.max_pages = 32 }
      w.Genie.World.a
  in
  let fd = Genie.File_io.open_file fio in
  let size = 64 * Genie.Host.page_size w.Genie.World.a in
  let rng = Simcore.Rng.create ~seed in
  let model = Bytes.init size (fun _ -> Char.chr (Simcore.Rng.int rng ~bound:256)) in
  let expect_ok what = function
    | Ok _ -> ()
    | Error `Again -> Alcotest.failf "storage replay: %s returned `Again" what
  in
  expect_ok "populate" (Genie.File_io.write fio ~fd ~off:0 ~data:(Bytes.copy model)
    ~on_complete:ignore);
  Genie.World.run w;
  for _ = 1 to 200 do
    let len = 1 + Simcore.Rng.int rng ~bound:(3 * 4096) in
    let off = Simcore.Rng.int rng ~bound:(size - len) in
    (match Simcore.Rng.int rng ~bound:7 with
    | 0 | 1 | 2 ->
      let data = Bytes.init len (fun _ -> Char.chr (Simcore.Rng.int rng ~bound:256)) in
      expect_ok "write" (Genie.File_io.write fio ~fd ~off ~data ~on_complete:ignore);
      Bytes.blit data 0 model off len
    | 3 | 4 ->
      let expected = Bytes.sub model off len in
      expect_ok "read"
        (Genie.File_io.read fio ~fd ~off ~len ~on_complete:(fun got ->
             if not (Bytes.equal got expected) then
               Alcotest.failf "storage replay: read at %d+%d diverges" off len))
    | 5 -> Genie.File_io.fsync fio ~fd ~on_complete:ignore
    | _ -> ignore (Genie.File_io.drop_caches fio));
    Genie.World.run w
  done;
  [ w.Genie.World.a; w.Genie.World.b ]

(* End to end with poison off (the fuzzer always poisons, so there every
   allocated frame is written at once): after a fabric run and a
   storage replay every host's zero page is intact, its bookkeeping
   exact, and frames nothing wrote still share it. *)
let test_zero_page_after_runs () =
  let saved = !Memory.Phys_mem.debug_poison in
  Memory.Phys_mem.debug_poison := false;
  Fun.protect ~finally:(fun () -> Memory.Phys_mem.debug_poison := saved)
  @@ fun () ->
  let _, fabric_hosts =
    Workload.Fabric.run_hosts
      {
        Workload.Fabric.default with
        Workload.Fabric.flows = 400;
        ports = 2;
        circuits_per_port = 8;
      }
  in
  List.iter
    (fun (h : Genie.Host.t) ->
      let pm = h.Genie.Host.vm.Vm.Vm_sys.phys in
      Alcotest.(check (list string))
        (h.Genie.Host.name ^ " zero-page audit") [] (Memory.Phys_mem.audit pm);
      Alcotest.(check bool)
        (h.Genie.Host.name ^ " still has unwritten frames") true
        (Array.exists
           (fun (f : Memory.Frame.t) -> f.Memory.Frame.known_zero)
           (Memory.Phys_mem.frames pm)))
    (fabric_hosts @ storage_replay ~seed:3)

let suite =
  [
    Alcotest.test_case "alloc/free" `Quick test_alloc_free;
    Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "I/O-deferred deallocation" `Quick test_deferred_deallocation;
    Alcotest.test_case "zombie adoption" `Quick test_adopt_zombie;
    Alcotest.test_case "alloc_many partial exhaustion" `Quick
      test_alloc_many_partial_exhaustion;
    Alcotest.test_case "alloc_zeroed after reuse" `Quick test_alloc_zeroed_after_reuse;
    Alcotest.test_case "buf_pool size classes" `Quick test_buf_pool_classes;
    Alcotest.test_case "buf_pool reuse" `Quick test_buf_pool_reuse;
    Alcotest.test_case "buf_pool poison" `Quick test_buf_pool_poison;
    Alcotest.test_case "unref without ref raises" `Quick test_unref_without_ref_raises;
    Alcotest.test_case "io_desc gather/scatter" `Quick test_desc_gather_scatter;
    Alcotest.test_case "io_desc bounds" `Quick test_desc_bounds;
    Alcotest.test_case "io_desc frame dedup" `Quick test_desc_frames_dedup;
    QCheck_alcotest.to_alcotest desc_roundtrip;
    Alcotest.test_case "input-disabled pageout" `Quick test_pageout_input_disabled;
    Alcotest.test_case "pageout unregister" `Quick test_pageout_unregister;
    Alcotest.test_case "pageout target" `Quick test_pageout_target;
    Alcotest.test_case "backing store" `Quick test_backing_store;
    Alcotest.test_case "backing store size check" `Quick test_backing_store_wrong_size;
    Alcotest.test_case "frames share the zero page until first write" `Quick
      test_zero_page_on_demand;
    Alcotest.test_case "zero-page audit catches its mutations" `Quick
      test_zero_page_audit_mutations;
    Alcotest.test_case "zero page intact after fabric and storage runs" `Quick
      test_zero_page_after_runs;
  ]
