type fit = { mult : float; fixed : float }

let table1 =
  [
    ("Token ring", 1972, "1, 4, or 16");
    ("Ethernet", 1976, "3 or 10");
    ("FDDI", 1987, "100");
    ("ATM", 1989, "155, 622, or 2488");
    ("HIPPI", 1992, "800 or 1600");
  ]

let e = `Estimated
let a = `Actual

let table7 =
  let early = Genie.Stage_cost.Early_demux
  and pal = Genie.Stage_cost.Pooled_aligned
  and pun = Genie.Stage_cost.Pooled_unaligned in
  let f mult fixed = { mult; fixed } in
  [
    ("copy", early, e, f 0.0997 141.); ("copy", early, a, f 0.0998 125.);
    ("copy", pal, e, f 0.100 166.); ("copy", pal, a, f 0.101 139.);
    ("copy", pun, e, f 0.100 166.); ("copy", pun, a, f 0.101 144.);
    ("emulated copy", early, e, f 0.0621 153.);
    ("emulated copy", early, a, f 0.0622 150.);
    ("emulated copy", pal, e, f 0.0625 178.);
    ("emulated copy", pal, a, f 0.0622 175.);
    ("emulated copy", pun, e, f 0.0828 177.);
    ("emulated copy", pun, a, f 0.0848 195.);
    ("share", early, e, f 0.0619 165.); ("share", early, a, f 0.0621 162.);
    ("share", pal, e, f 0.0637 204.); ("share", pal, a, f 0.0638 197.);
    ("share", pun, e, f 0.0841 203.); ("share", pun, a, f 0.0846 219.);
    ("emulated share", early, e, f 0.0602 137.);
    ("emulated share", early, a, f 0.0600 137.);
    ("emulated share", pal, e, f 0.0621 175.);
    ("emulated share", pal, a, f 0.0619 167.);
    ("emulated share", pun, e, f 0.0825 175.);
    ("emulated share", pun, a, f 0.0824 178.);
    ("move", early, e, f 0.0628 197.); ("move", early, a, f 0.0626 202.);
    ("move", pal, e, f 0.0634 224.); ("move", pal, a, f 0.0631 234.);
    ("move", pun, e, f 0.0634 224.); ("move", pun, a, f 0.0631 234.);
    ("emulated move", early, e, f 0.0610 151.);
    ("emulated move", early, a, f 0.0609 150.);
    ("emulated move", pal, e, f 0.0625 185.);
    ("emulated move", pal, a, f 0.0623 183.);
    ("emulated move", pun, e, f 0.0625 185.);
    ("emulated move", pun, a, f 0.0623 183.);
    ("weak move", early, e, f 0.0620 173.);
    ("weak move", early, a, f 0.0615 170.);
    ("weak move", pal, e, f 0.0637 212.);
    ("weak move", pal, a, f 0.0633 206.);
    ("weak move", pun, e, f 0.0637 212.);
    ("weak move", pun, a, f 0.0633 206.);
    ("emulated weak move", early, e, f 0.0603 144.);
    ("emulated weak move", early, a, f 0.0602 143.);
    ("emulated weak move", pal, e, f 0.0621 183.);
    ("emulated weak move", pal, a, f 0.0619 184.);
    ("emulated weak move", pun, e, f 0.0621 183.);
    ("emulated weak move", pun, a, f 0.0619 184.);
  ]

let table7_find ~sem ~scheme ~kind =
  List.find_map
    (fun (s, sch, k, fit) ->
      if s = sem && sch = scheme && k = kind then Some fit else None)
    table7

let throughput_60k_early =
  [
    ("copy", 78.); ("move", 121.); ("share", 124.); ("emulated copy", 124.);
    ("weak move", 124.); ("emulated move", 126.); ("emulated weak move", 128.);
    ("emulated share", 129.);
  ]

let throughput_60k_pooled_aligned =
  [
    ("copy", 77.); ("share", 120.); ("move", 120.); ("weak move", 120.);
    ("emulated move", 123.); ("emulated copy", 123.);
    ("emulated weak move", 123.); ("emulated share", 124.);
  ]

let throughput_60k_pooled_unaligned =
  [
    ("copy", 77.); ("emulated copy", 92.); ("share", 92.);
    ("emulated share", 92.); ("move", 121.); ("emulated move", 121.);
    ("weak move", 121.); ("emulated weak move", 121.);
  ]

let cpu_util_60k =
  [
    ("copy", 26.); ("move", 12.); ("weak move", 12.); ("share", 12.);
    ("emulated copy", 10.); ("emulated move", 10.); ("emulated weak move", 9.);
    ("emulated share", 8.);
  ]

let fig5_copy_floor_us = 145.

type half_page = { emulated_copy_us : float; emulated_share_us : float }

let fig5_half_page = { emulated_copy_us = 325.; emulated_share_us = 254. }

let oc12_throughput =
  [ ("copy", 140.); ("emulated copy", 404.); ("emulated share", 463.);
    ("move", 380.) ]

type scaling_row = {
  parameter_type : string;
  estimated_lo : float option;
  estimated_hi : float option;
  gm : float;
  min_ratio : float;
  max_ratio : float;
}

let table8_gateway =
  [
    { parameter_type = "memory-dominated"; estimated_lo = Some 2.40;
      estimated_hi = Some 2.40; gm = 2.43; min_ratio = 2.43; max_ratio = 2.43 };
    { parameter_type = "cache-dominated"; estimated_lo = Some 1.44;
      estimated_hi = Some 3.33; gm = 2.46; min_ratio = 2.46; max_ratio = 2.46 };
    { parameter_type = "CPU-dominated mult"; estimated_lo = Some 1.57;
      estimated_hi = None; gm = 1.79; min_ratio = 1.58; max_ratio = 1.92 };
    { parameter_type = "CPU-dominated fixed"; estimated_lo = Some 1.57;
      estimated_hi = None; gm = 1.83; min_ratio = 1.53; max_ratio = 2.59 };
  ]

let table8_alpha =
  [
    { parameter_type = "memory-dominated"; estimated_lo = Some 1.00;
      estimated_hi = Some 1.00; gm = 0.83; min_ratio = 0.83; max_ratio = 0.83 };
    { parameter_type = "cache-dominated"; estimated_lo = Some 0.26;
      estimated_hi = Some 1.39; gm = 0.54; min_ratio = 0.54; max_ratio = 0.54 };
    { parameter_type = "CPU-dominated mult"; estimated_lo = Some 1.30;
      estimated_hi = None; gm = 1.64; min_ratio = 0.75; max_ratio = 3.77 };
    { parameter_type = "CPU-dominated fixed"; estimated_lo = Some 1.30;
      estimated_hi = None; gm = 1.54; min_ratio = 0.47; max_ratio = 3.74 };
  ]

let wire_and_unwire_first_page_us = 35.
