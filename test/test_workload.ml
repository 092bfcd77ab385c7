(* Tests for the measurement harness: the breakdown-model estimator, the
   latency probe, experiment helpers and the paper-data tables. *)

module Sem = Genie.Semantics
module E = Genie.Stage_cost

let costs = Machine.Cost_model.create Machine.Machine_spec.micron_p166
let params = Net.Net_params.oc3

(* Every estimated fit must match the paper's Table 7 E row within 2% in
   slope and 10 usec in intercept. *)
let test_estimates_match_paper_table7 () =
  List.iter
    (fun sem ->
      List.iter
        (fun scheme ->
          let y1 = E.latency_us costs params ~scheme ~sem ~len:4096 in
          let y2 = E.latency_us costs params ~scheme ~sem ~len:61440 in
          let slope = (y2 -. y1) /. float_of_int (61440 - 4096) in
          let intercept = y1 -. (slope *. 4096.) in
          match
            Workload.Paper_data.table7_find ~sem:(Sem.name sem) ~scheme
              ~kind:`Estimated
          with
          | Some fit ->
            let label =
              Printf.sprintf "%s / %s" (Sem.name sem) (E.scheme_name scheme)
            in
            if
              Float.abs (slope -. fit.Workload.Paper_data.mult)
              /. fit.Workload.Paper_data.mult
              > 0.02
            then
              Alcotest.failf "%s: slope %.4f vs paper %.4f" label slope
                fit.Workload.Paper_data.mult;
            if Float.abs (intercept -. fit.Workload.Paper_data.fixed) > 10. then
              Alcotest.failf "%s: intercept %.0f vs paper %.0f" label intercept
                fit.Workload.Paper_data.fixed
          | None -> Alcotest.fail "missing paper entry")
        [ E.Early_demux; E.Pooled_aligned; E.Pooled_unaligned ])
    Sem.all

let test_base_latency_formula () =
  (* base = 0.0598 B + 130 on the paper's fit; ours is 0.0590 B + 130. *)
  let b1 = E.base_us costs params ~len:4096 in
  let b2 = E.base_us costs params ~len:61440 in
  let slope = (b2 -. b1) /. float_of_int (61440 - 4096) in
  Alcotest.(check bool) "slope near 0.059" true (Float.abs (slope -. 0.059) < 0.002);
  let intercept = b1 -. (slope *. 4096.) in
  Alcotest.(check bool) "fixed near 130" true (Float.abs (intercept -. 130.) < 8.)

let test_estimate_orderings () =
  let l scheme sem = E.latency_us costs params ~scheme ~sem ~len:61440 in
  Alcotest.(check bool) "copy slowest everywhere" true
    (List.for_all
       (fun scheme ->
         List.for_all
           (fun sem ->
             Sem.equal sem Sem.copy || l scheme sem < l scheme Sem.copy)
           Sem.all)
       [ E.Early_demux; E.Pooled_aligned; E.Pooled_unaligned ]);
  Alcotest.(check bool) "unaligned >= aligned for app-allocated" true
    (List.for_all
       (fun sem -> l E.Pooled_unaligned sem >= l E.Pooled_aligned sem -. 0.001)
       [ Sem.copy; Sem.emulated_copy; Sem.share; Sem.emulated_share ])

let test_paper_data_complete () =
  (* 8 semantics x 3 schemes x 2 kinds = 48 fits. *)
  Alcotest.(check int) "48 table 7 rows" 48 (List.length Workload.Paper_data.table7);
  List.iter
    (fun table ->
      Alcotest.(check int) "8 throughput entries" 8 (List.length table))
    [ Workload.Paper_data.throughput_60k_early;
      Workload.Paper_data.throughput_60k_pooled_aligned;
      Workload.Paper_data.throughput_60k_pooled_unaligned;
      Workload.Paper_data.cpu_util_60k ]

let test_probe_modes () =
  (* The probe supports every mode/semantics combination; check a few
     non-default corners deliver sensible numbers. *)
  let run mode sem recv_offset =
    Workload.Latency_probe.run
      {
        (Workload.Latency_probe.default ~sem ~len:8192) with
        Workload.Latency_probe.mode;
        recv_offset;
        runs = 2;
        warmup = 1;
        spec = Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
      }
  in
  let o = run Net.Adapter.Outboard Sem.weak_move 0 in
  Alcotest.(check bool) "outboard weak move completes" true
    (o.Workload.Latency_probe.one_way_us > 100.);
  let o2 = run Net.Adapter.Pooled Sem.emulated_copy 16 in
  Alcotest.(check bool) "pooled aligned emcopy completes" true
    (o2.Workload.Latency_probe.one_way_us > 100.);
  Alcotest.(check int) "round count honored" 2 o2.Workload.Latency_probe.rounds

let test_probe_monotone_in_len () =
  let latency len =
    (Workload.Latency_probe.run
       {
         (Workload.Latency_probe.default ~sem:Sem.emulated_copy ~len) with
         Workload.Latency_probe.spec =
           Workload.Experiments.light_spec Machine.Machine_spec.micron_p166;
         runs = 2;
         warmup = 1;
       })
      .Workload.Latency_probe.one_way_us
  in
  let lats = List.map latency [ 4096; 16384; 32768; 61440 ] in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "latency increases with size" true (monotone lats)

let test_probe_alpha_platform () =
  (* The AlphaStation has 8 KB pages; the whole stack must cope. *)
  let o =
    Workload.Latency_probe.run
      {
        (Workload.Latency_probe.default ~sem:Sem.emulated_copy ~len:49152) with
        Workload.Latency_probe.spec =
          Workload.Experiments.light_spec Machine.Machine_spec.alphastation_255;
        runs = 2;
        warmup = 1;
      }
  in
  Alcotest.(check bool) "alpha run completes" true
    (o.Workload.Latency_probe.one_way_us > 500.)

let test_cpu_monitor () =
  Alcotest.(check (float 1e-9)) "background" 0.065
    Workload.Cpu_monitor.background_fraction;
  Alcotest.(check (float 1e-9)) "clamped" 100.
    (Workload.Cpu_monitor.utilization_pct ~busy_fraction:2.);
  Alcotest.(check (float 1e-9)) "additive" 16.5
    (Workload.Cpu_monitor.utilization_pct ~busy_fraction:0.10)

let test_semantics_names_roundtrip () =
  List.iter
    (fun sem ->
      match Sem.of_name (Sem.name sem) with
      | Some s -> Alcotest.(check bool) (Sem.name sem) true (Sem.equal s sem)
      | None -> Alcotest.failf "name %s does not parse" (Sem.name sem))
    Sem.all;
  Alcotest.(check bool) "unknown name" true (Sem.of_name "quantum move" = None)

let test_thresholds_scaling () =
  let t8k = Genie.Thresholds.for_page_size 8192 in
  Alcotest.(check bool) "reverse copyout just above half page" true
    (t8k.Genie.Thresholds.reverse_copyout > 4096
    && t8k.Genie.Thresholds.reverse_copyout < 4500);
  let t4k = Genie.Thresholds.for_page_size 4096 in
  Alcotest.(check int) "4K page keeps the paper's setting" 2178
    t4k.Genie.Thresholds.reverse_copyout;
  Alcotest.(check int) "conversion threshold" 1666
    t4k.Genie.Thresholds.copy_out_emulated_copy

let suite =
  [
    Alcotest.test_case "estimates match paper Table 7 (E)" `Quick
      test_estimates_match_paper_table7;
    Alcotest.test_case "base latency formula" `Quick test_base_latency_formula;
    Alcotest.test_case "estimate orderings" `Quick test_estimate_orderings;
    Alcotest.test_case "paper data complete" `Quick test_paper_data_complete;
    Alcotest.test_case "probe modes" `Quick test_probe_modes;
    Alcotest.test_case "probe monotone in length" `Quick test_probe_monotone_in_len;
    Alcotest.test_case "probe on the AlphaStation" `Quick test_probe_alpha_platform;
    Alcotest.test_case "cpu monitor" `Quick test_cpu_monitor;
    Alcotest.test_case "semantics names roundtrip" `Quick
      test_semantics_names_roundtrip;
    Alcotest.test_case "threshold scaling" `Quick test_thresholds_scaling;
  ]
