(** The paper's published numbers, for side-by-side comparison in the
    benchmark reports and in EXPERIMENTS.md.  All values are transcribed
    from Brustoloni & Steenkiste, OSDI '96. *)

type fit = { mult : float; fixed : float }
(** Latency in usec = mult * B + fixed, B in bytes. *)

val table1 : (string * int * string) list
(** LAN, year introduced, point-to-point bandwidths (Mbps). *)

val table7 :
  (string * Genie.Stage_cost.scheme * [ `Estimated | `Actual ] * fit) list
(** End-to-end latency fits per semantics name and input scheme. *)

val table7_find :
  sem:string -> scheme:Genie.Stage_cost.scheme -> kind:[ `Estimated | `Actual ] ->
  fit option

val throughput_60k_early : (string * float) list
(** Equivalent throughput (Mbps) for single 60 KB datagrams with early
    demultiplexing (Section 7). *)

val throughput_60k_pooled_aligned : (string * float) list
val throughput_60k_pooled_unaligned : (string * float) list

val cpu_util_60k : (string * float) list
(** CPU utilization (%) at 60 KB (Figure 4). *)

val fig5_copy_floor_us : float
(** Copy semantics short-datagram latency floor: 145 usec. *)

type half_page = { emulated_copy_us : float; emulated_share_us : float }

val fig5_half_page : half_page
(** The maximal gap point at half a page: 325 vs 254 usec. *)

val oc12_throughput : (string * float) list
(** Predicted throughputs at OC-12 for 60 KB datagrams (Section 8):
    copy 140, emulated copy 404, emulated share 463, move 380 Mbps. *)

type scaling_row = {
  parameter_type : string;
  estimated_lo : float option;
  estimated_hi : float option;
  gm : float;
  min_ratio : float;
  max_ratio : float;
}

val table8_gateway : scaling_row list
val table8_alpha : scaling_row list

val wire_and_unwire_first_page_us : float
(** "about 35 usec for the first page" (Section 7). *)
