(* Parallel runs of independent engines: the same simulation must
   produce bit-identical results for every domain count, and the timer
   wheel must preserve the binary heap's exact pop order. *)

module T = Simcore.Sim_time

(* {1 Timer wheel} *)

(* Differential check against the reference Heap on an adversarial key
   sequence: bursts of near keys, far-future keys that overflow into the
   heap and must migrate back, equal keys that must pop in insertion
   order, and interleaved pops that drag the cursor forward. *)
let wheel_matches_heap =
  QCheck.Test.make ~count:200 ~name:"wheel pops in exact heap order"
    QCheck.(
      list
        (pair (oneofl [ `Push_near; `Push_far; `Push_dup; `Pop ]) small_nat))
    (fun script ->
      let w = Simcore.Wheel.create ~dummy:0 () in
      let h = Simcore.Heap.create () in
      let floor = ref 0 in
      let last_key = ref 0 in
      let check_pop () =
        match (Simcore.Wheel.pop w, Simcore.Heap.pop h) with
        | None, None -> true
        | Some (wk, wv), Some (hk, hv) ->
          floor := max !floor wk;
          wk = hk && wv = hv
        | _ -> false
      in
      let ok = ref true in
      List.iter
        (fun (op, n) ->
          if !ok then
            match op with
            | `Push_near ->
              let key = !floor + (n * 97) in
              last_key := key;
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n;
              ok := Simcore.Wheel.length w = Simcore.Heap.length h
            | `Push_far ->
              (* Far beyond the 2^20 ns near window. *)
              let key = !floor + 2_000_000 + (n * 131) in
              last_key := key;
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n
            | `Push_dup ->
              let key = max !floor !last_key in
              Simcore.Wheel.push w ~key n;
              Simcore.Heap.push h ~key n
            | `Pop -> ok := check_pop ())
        script;
      while !ok && not (Simcore.Wheel.is_empty w) do
        ok := check_pop ()
      done;
      !ok && Simcore.Heap.is_empty h)

let test_wheel_same_timestamp_fifo () =
  let w = Simcore.Wheel.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Simcore.Wheel.push w ~key:5000 i
  done;
  for i = 0 to 99 do
    match Simcore.Wheel.pop w with
    | Some (5000, v) -> Alcotest.(check int) "fifo at equal keys" i v
    | _ -> Alcotest.fail "bad pop"
  done

let test_wheel_far_migration () =
  (* Far-future events (beyond the ~1 ms near window) must come back in
     order, including ties with near events pushed later. *)
  let w = Simcore.Wheel.create ~dummy:(-1) () in
  Simcore.Wheel.push w ~key:50_000_000 0;
  Simcore.Wheel.push w ~key:10 1;
  Simcore.Wheel.push w ~key:50_000_000 2;
  Alcotest.(check (option int)) "near first" (Some 10)
    (Simcore.Wheel.peek_key w);
  Alcotest.(check bool) "pop near" true (Simcore.Wheel.pop w = Some (10, 1));
  (* After the cursor jumps 50 ms ahead, a push between the old and new
     cursor positions must still pop first (cursor rewind). *)
  Alcotest.(check (option int)) "jump to far" (Some 50_000_000)
    (Simcore.Wheel.peek_key w);
  Simcore.Wheel.push w ~key:1_000_000 3;
  Alcotest.(check bool) "rewound" true (Simcore.Wheel.pop w = Some (1_000_000, 3));
  Alcotest.(check bool) "far tie order" true
    (Simcore.Wheel.pop w = Some (50_000_000, 0));
  Alcotest.(check bool) "far tie order 2" true
    (Simcore.Wheel.pop w = Some (50_000_000, 2));
  Alcotest.(check bool) "empty" true (Simcore.Wheel.is_empty w)

let test_wheel_floor_guard () =
  let w = Simcore.Wheel.create ~dummy:0 () in
  Simcore.Wheel.push w ~key:500 1;
  ignore (Simcore.Wheel.pop w);
  Alcotest.check_raises "below floor"
    (Invalid_argument "Wheel.push: key below last popped key") (fun () ->
      Simcore.Wheel.push w ~key:499 2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Wheel.push: negative key") (fun () ->
      Simcore.Wheel.push w ~key:(-1) 2)

(* {1 Rng streams} *)

let rng_stream_laws =
  QCheck.Test.make ~count:200 ~name:"rng stream derivation is pure and stable"
    QCheck.(pair small_nat (pair small_nat small_nat))
    (fun (seed, (i, j)) ->
      let draw r = List.init 4 (fun _ -> Simcore.Rng.next_int64 r) in
      let base () = Simcore.Rng.create ~seed in
      (* Pure: deriving does not advance the parent, and the same id
         always yields the same stream regardless of derivation order. *)
      let t = base () in
      let a1 = draw (Simcore.Rng.stream t ~id:i) in
      let a2 = draw (Simcore.Rng.stream t ~id:i) in
      let parent_untouched = draw t = draw (base ()) in
      let t2 = base () in
      let _ = draw (Simcore.Rng.stream t2 ~id:j) in
      let a3 = draw (Simcore.Rng.stream t2 ~id:i) in
      a1 = a2 && a1 = a3 && parent_untouched
      && (i = j || a1 <> draw (Simcore.Rng.stream (base ()) ~id:j)))

(* {1 Cluster digests across domain counts} *)

let digest_for ~domains ~pairs ~seed ~messages =
  let c = Genie.Cluster.create ~domains ~pairs () in
  Genie.Cluster.drive c ~seed ~messages

let cluster_digest_equivalence =
  QCheck.Test.make ~count:6 ~name:"cluster digest identical for 1/2/4 domains"
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (seed, extra_pairs) ->
      let pairs = 2 + extra_pairs and messages = 12 in
      let d1 = digest_for ~domains:1 ~pairs ~seed ~messages in
      let d2 = digest_for ~domains:2 ~pairs ~seed ~messages in
      let d4 = digest_for ~domains:4 ~pairs ~seed ~messages in
      if d1 <> d2 || d1 <> d4 then
        QCheck.Test.fail_reportf "digests diverge: 1:%s 2:%s 4:%s" d1 d2 d4;
      true)

(* {1 run_all} *)

let test_run_all_failure () =
  (* An event on engine 1 raises while engine 0 still has work: the
     exception reaches the caller only after engine 0 has drained. *)
  let e0 = Simcore.Engine.create () and e1 = Simcore.Engine.create () in
  let last0 = ref 0 in
  for i = 1 to 1000 do
    Simcore.Engine.schedule e0 ~delay:(T.of_ns (i * 10)) (fun () -> last0 := i)
  done;
  Simcore.Engine.schedule e1 ~delay:(T.of_ns 5) (fun () ->
      failwith "engine 1 event");
  Alcotest.check_raises "engine 1's exception reaches the caller"
    (Failure "engine 1 event") (fun () -> Simcore.Engine.run_all [| e0; e1 |]);
  Alcotest.(check int) "engine 0 ran every event" 1000 !last0;
  Alcotest.(check int) "engine 0 drained" 0 (Simcore.Engine.pending e0);
  Alcotest.(check int) "engine 0 clock at its last event" 10_000
    (T.to_ns (Simcore.Engine.now e0))

(* {1 Id counters shared by every engine} *)

let test_ids_distinct_across_domains () =
  let n = 200_000 in
  let distinct name mint =
    let spawn () = Domain.spawn (fun () -> Array.init n (fun _ -> mint ())) in
    let d1 = spawn () and d2 = spawn () in
    let ids = Array.append (Domain.join d1) (Domain.join d2) in
    let seen = Hashtbl.create (2 * n) in
    Array.iter (fun id -> Hashtbl.replace seen id ()) ids;
    Alcotest.(check int) name (2 * n) (Hashtbl.length seen)
  in
  distinct "memory object ids" (fun () ->
      (Vm.Memory_object.create ()).Vm.Memory_object.id);
  let obj = Vm.Memory_object.create () in
  distinct "region ids" (fun () ->
      (Vm.Region.make ~start_vpn:0 ~npages:1 ~state:Vm.Region.Unmovable ~obj)
        .Vm.Region.id)

let suite =
  [
    QCheck_alcotest.to_alcotest wheel_matches_heap;
    Alcotest.test_case "wheel same-timestamp fifo" `Quick
      test_wheel_same_timestamp_fifo;
    Alcotest.test_case "wheel far migration and rewind" `Quick
      test_wheel_far_migration;
    Alcotest.test_case "wheel floor guard" `Quick test_wheel_floor_guard;
    QCheck_alcotest.to_alcotest rng_stream_laws;
    QCheck_alcotest.to_alcotest cluster_digest_equivalence;
    Alcotest.test_case "run_all joins every domain on failure" `Quick
      test_run_all_failure;
    Alcotest.test_case "vm ids distinct across domains" `Quick
      test_ids_distinct_across_domains;
  ]
