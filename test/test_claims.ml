(* Quantitative reproduction tests: the paper's headline claims must
   hold in this simulation, with explicit tolerances.  These are the
   tests that fail if a change breaks the *shape* of the results. *)

module Sem = Genie.Semantics
module LP = Workload.Latency_probe

let light = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166

let probe ?(mode = Net.Adapter.Early_demux) ?(recv_offset = 0)
    ?(params = Net.Net_params.oc3) sem len =
  LP.run
    { (LP.default ~sem ~len) with LP.mode; recv_offset; params; spec = light }

let latency ?mode ?recv_offset sem len =
  (probe ?mode ?recv_offset sem len).LP.one_way_us

let within_pct msg ~expect ~tol_pct actual =
  let err = 100. *. Float.abs (actual -. expect) /. expect in
  if err > tol_pct then
    Alcotest.failf "%s: got %.1f, paper %.1f (%.1f%% off, tolerance %.1f%%)" msg
      actual expect err tol_pct

(* Figure 3 / Table 7 actual fits, at 60 KB, within 5%. *)
let test_fig3_latencies_match_paper () =
  List.iter
    (fun sem ->
      let name = Sem.name sem in
      match
        Workload.Paper_data.table7_find ~sem:name ~scheme:Genie.Stage_cost.Early_demux
          ~kind:`Actual
      with
      | Some fit ->
        let expect = (fit.Workload.Paper_data.mult *. 61440.) +. fit.Workload.Paper_data.fixed in
        within_pct (name ^ " @60KB early demux") ~expect ~tol_pct:5.
          (latency sem 61440)
      | None -> Alcotest.fail "missing paper fit")
    Sem.all

(* The headline: emulated copy cuts 60 KB latency by ~37% vs copy. *)
let test_emulated_copy_improvement () =
  let copy = latency Sem.copy 61440 in
  let emcopy = latency Sem.emulated_copy 61440 in
  let reduction = 100. *. (copy -. emcopy) /. copy in
  if reduction < 33. || reduction > 41. then
    Alcotest.failf "emulated copy reduction %.1f%% (paper: 37%%)" reduction

(* "All semantics other than copy performed quite similarly": non-copy
   latencies at 60 KB within 7% of each other; copy at least 50% worse. *)
let test_performance_clustering () =
  let non_copy = List.filter (fun s -> not (Sem.equal s Sem.copy)) Sem.all in
  let lats = List.map (fun s -> latency s 61440) non_copy in
  let lo = List.fold_left Float.min infinity lats in
  let hi = List.fold_left Float.max neg_infinity lats in
  if (hi -. lo) /. lo > 0.07 then
    Alcotest.failf "non-copy spread too wide: %.0f..%.0f" lo hi;
  let copy = latency Sem.copy 61440 in
  Alcotest.(check bool) "copy distinctly inferior" true (copy > 1.5 *. lo)

(* Emulated semantics never slower than their basic counterparts. *)
let test_emulated_never_slower () =
  List.iter
    (fun (basic, emulated) ->
      let b = latency basic 61440 and e = latency emulated 61440 in
      if e > b *. 1.01 then
        Alcotest.failf "%s (%.0f) slower than %s (%.0f)" (Sem.name emulated) e
          (Sem.name basic) b)
    [ (Sem.copy, Sem.emulated_copy); (Sem.share, Sem.emulated_share);
      (Sem.move, Sem.emulated_move); (Sem.weak_move, Sem.emulated_weak_move) ]

(* Figure 5 claims. *)
let test_fig5_shapes () =
  (* Copy has the lowest short-datagram latency (floor ~145 usec). *)
  let at64 = List.map (fun s -> (Sem.name s, latency s 64)) Sem.all in
  let copy64 = List.assoc "copy" at64 in
  within_pct "copy floor" ~expect:145. ~tol_pct:10. copy64;
  (* Move is by far the highest at short lengths (page zeroing). *)
  let move64 = List.assoc "move" at64 in
  List.iter
    (fun (name, l) ->
      if name <> "move" && l >= move64 then
        Alcotest.failf "%s (%.0f) >= move (%.0f) at 64 B" name l move64)
    at64;
  (* Emulated copy equals copy below the conversion threshold. *)
  let c = latency Sem.copy 1024 and ec = latency Sem.emulated_copy 1024 in
  within_pct "emulated copy = copy below threshold" ~expect:c ~tol_pct:2. ec;
  (* The emulated copy / emulated share gap is maximal at half a page:
     paper reports 325 vs 254 usec. *)
  let ec_half = latency Sem.emulated_copy 2048 in
  let es_half = latency Sem.emulated_share 2048 in
  within_pct "emulated copy at half page" ~expect:325. ~tol_pct:6. ec_half;
  within_pct "emulated share at half page" ~expect:254. ~tol_pct:6. es_half

(* Figure 6 vs 7: alignment only matters for application-allocated
   semantics; system-allocated are unaffected. *)
let test_alignment_grouping () =
  let aligned sem =
    latency ~mode:Net.Adapter.Pooled ~recv_offset:Proto.Dgram_header.length sem 61440
  and unaligned sem = latency ~mode:Net.Adapter.Pooled ~recv_offset:0 sem 61440 in
  (* System-allocated: identical under both alignments. *)
  List.iter
    (fun sem ->
      let a = aligned sem and u = unaligned sem in
      within_pct (Sem.name sem ^ " unaffected by alignment") ~expect:a ~tol_pct:1. u)
    [ Sem.move; Sem.emulated_move; Sem.weak_move; Sem.emulated_weak_move ];
  (* Application-allocated non-copy: one extra copy when unaligned. *)
  List.iter
    (fun sem ->
      let a = aligned sem and u = unaligned sem in
      let extra = u -. a in
      (* A 60 KB copyout at 0.022 usec/B is ~1350 usec. *)
      if extra < 1000. || extra > 1700. then
        Alcotest.failf "%s: unaligned penalty %.0f usec not one copy" (Sem.name sem)
          extra)
    [ Sem.emulated_copy; Sem.share; Sem.emulated_share ];
  (* Copy pays two copies regardless. *)
  within_pct "copy unaffected by alignment" ~expect:(aligned Sem.copy) ~tol_pct:1.
    (unaligned Sem.copy)

(* Figure 4: CPU utilization within 2.5 points of the paper at 60 KB. *)
let test_cpu_utilization () =
  List.iter
    (fun sem ->
      let o = probe sem 61440 in
      let util =
        Workload.Cpu_monitor.utilization_pct ~busy_fraction:o.LP.cpu_busy_fraction
      in
      let paper = List.assoc (Sem.name sem) Workload.Paper_data.cpu_util_60k in
      if Float.abs (util -. paper) > 2.5 then
        Alcotest.failf "%s: utilization %.1f%% vs paper %.0f%%" (Sem.name sem) util
          paper)
    Sem.all

(* Throughput quotes from Section 7 within 4%. *)
let test_throughputs () =
  List.iter
    (fun sem ->
      let o = probe sem 61440 in
      let paper = List.assoc (Sem.name sem) Workload.Paper_data.throughput_60k_early in
      within_pct (Sem.name sem ^ " throughput") ~expect:paper ~tol_pct:4.
        o.LP.throughput_mbps)
    Sem.all

(* OC-12 extrapolation: emulated copy almost 3x copy. *)
let test_oc12_extrapolation () =
  let t sem = (probe ~params:Net.Net_params.oc12 sem 61440).LP.throughput_mbps in
  List.iter
    (fun (sem, expect) ->
      within_pct (Sem.name sem ^ " @OC-12") ~expect ~tol_pct:5. (t sem))
    [ (Sem.copy, 140.); (Sem.emulated_copy, 404.); (Sem.emulated_share, 463.);
      (Sem.move, 380.) ];
  Alcotest.(check bool) "emulated copy ~3x copy at OC-12" true
    (t Sem.emulated_copy /. t Sem.copy > 2.7)

(* The breakdown model: estimates match actuals (the paper's "good
   fit"), and both match the published fits. *)
let test_estimate_matches_actual () =
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  List.iter
    (fun sem ->
      let est =
        Genie.Stage_cost.latency_us costs Net.Net_params.oc3
          ~scheme:Genie.Stage_cost.Early_demux ~sem ~len:61440
      in
      let act = latency sem 61440 in
      within_pct (Sem.name sem ^ " estimate vs actual") ~expect:est ~tol_pct:2. act)
    Sem.all

(* Cross-semantics additivity: latency with sender semantics S and
   receiver semantics R equals base + send-side(S) + receive-side(R).
   Check one nontrivial pair against the estimate composition. *)
let test_breakdown_composes_across_semantics () =
  let w = Genie.World.create ~spec_a:light ~spec_b:light () in
  let ea, eb = Genie.World.endpoint_pair w ~vc:1 ~mode:Net.Adapter.Early_demux in
  let len = 61440 in
  let space_a = Genie.Host.new_space w.Genie.World.a in
  let region = Vm.Address_space.map_region space_a ~npages:15 in
  let buf =
    Genie.Buf.make space_a
      ~addr:(Vm.Address_space.base_addr region ~page_size:4096)
      ~len
  in
  Genie.Buf.fill_pattern buf ~seed:40;
  let space_b = Genie.Host.new_space w.Genie.World.b in
  let rregion = Vm.Address_space.map_region space_b ~npages:15 in
  let rbuf =
    Genie.Buf.make space_b
      ~addr:(Vm.Address_space.base_addr rregion ~page_size:4096)
      ~len
  in
  let t_done = ref 0. in
  ignore
  (Genie.Endpoint.input eb ~sem:Sem.copy ~spec:(Genie.Input_path.App_buffer rbuf)
    ~on_complete:(fun _ -> t_done := Genie.Host.now_us w.Genie.World.b));
  let t0 = Genie.Host.now_us w.Genie.World.a in
  ignore (Genie.Endpoint.output ea ~sem:Sem.emulated_copy ~buf ());
  Genie.World.run w;
  let mixed = !t_done -. t0 in
  (* Expected: emulated copy sender side + copy receiver side. *)
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  let ec =
    Genie.Stage_cost.latency_us costs Net.Net_params.oc3
      ~scheme:Genie.Stage_cost.Early_demux ~sem:Sem.emulated_copy ~len
  and cc =
    Genie.Stage_cost.latency_us costs Net.Net_params.oc3
      ~scheme:Genie.Stage_cost.Early_demux ~sem:Sem.copy ~len
  and es =
    Genie.Stage_cost.latency_us costs Net.Net_params.oc3
      ~scheme:Genie.Stage_cost.Early_demux ~sem:Sem.emulated_share ~len
  in
  ignore es;
  (* sender(emcopy) + receiver(copy): receiver side of copy is copyout,
     so expected = emcopy_total - emcopy_receiver + copy_receiver.
     Build it from the estimate pieces: *)
  let expected = ec -. (0.00163 *. 61440. +. 15.) +. (0.022 *. 61440. +. 15. +. 1.) in
  ignore cc;
  within_pct "mixed emcopy->copy latency" ~expect:expected ~tol_pct:3. mixed

(* Determinism: identical configurations give identical results. *)
let test_probe_deterministic () =
  let a = probe Sem.emulated_copy 16384 and b = probe Sem.emulated_copy 16384 in
  Alcotest.(check (float 1e-9)) "same latency" a.LP.one_way_us b.LP.one_way_us;
  Alcotest.(check (float 1e-9)) "same busy" a.LP.cpu_busy_fraction b.LP.cpu_busy_fraction

(* The base-latency decomposition: emulated share minus referencing
   costs reproduces 0.0598 B + 130 within 3%. *)
let test_base_latency_decomposition () =
  let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166 in
  List.iter
    (fun len ->
      let es = latency Sem.emulated_share len in
      let pb = (len + 4095) / 4096 * 4096 in
      let ref_us =
        Simcore.Sim_time.to_us (Machine.Cost_model.cost costs Machine.Cost_model.Reference ~bytes:pb)
      and unref_us =
        Simcore.Sim_time.to_us
          (Machine.Cost_model.cost costs Machine.Cost_model.Unreference ~bytes:pb)
      in
      let base = es -. ref_us -. unref_us in
      let paper_base = (0.0598 *. float_of_int len) +. 130. in
      within_pct
        (Printf.sprintf "base latency at %d" len)
        ~expect:paper_base ~tol_pct:3.5 base)
    [ 4096; 32768; 61440 ]

let suite =
  [
    Alcotest.test_case "Fig 3 latencies match paper" `Slow test_fig3_latencies_match_paper;
    Alcotest.test_case "emulated copy cuts latency ~37%" `Quick
      test_emulated_copy_improvement;
    Alcotest.test_case "non-copy semantics cluster" `Slow test_performance_clustering;
    Alcotest.test_case "emulated never slower than basic" `Slow
      test_emulated_never_slower;
    Alcotest.test_case "Fig 5 shapes" `Quick test_fig5_shapes;
    Alcotest.test_case "Fig 6/7 alignment grouping" `Slow test_alignment_grouping;
    Alcotest.test_case "Fig 4 CPU utilization" `Slow test_cpu_utilization;
    Alcotest.test_case "Section 7 throughputs" `Slow test_throughputs;
    Alcotest.test_case "OC-12 extrapolation" `Quick test_oc12_extrapolation;
    Alcotest.test_case "estimates match actuals" `Slow test_estimate_matches_actual;
    Alcotest.test_case "breakdown composes across semantics" `Quick
      test_breakdown_composes_across_semantics;
    Alcotest.test_case "probe determinism" `Quick test_probe_deterministic;
    Alcotest.test_case "base latency decomposition" `Quick
      test_base_latency_decomposition;
  ]
