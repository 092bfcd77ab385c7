(* The repository benchmark.

   One executable runs one workload for one seed and prints, as the last
   line of standard output, a JSON object
   [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0] the
   metrics are the end-to-end ones, measured with the program's tracer
   and the benchmark's own spans off.  With [--trace 1] a separate traced
   run prints the per-layer metrics: count-only tracer counters, spans
   the benchmark records around every call it makes into a layer, GC
   pauses read from [Runtime_events], and kernels that time the layer
   functions only the program calls.

   Workloads (see METRICS.md for why each was chosen):
   - fabric-bulk: [Workload.Fabric.run] in its default shape, repeated;
   - pingpong-small: a closed-loop ping-pong over all 8 taxonomy corners
     x 3 input-buffering modes, driven by stepping the engine;
   - storage-mix: closed-loop [Genie.File_io] reads, writes, sendfile and
     fsync on a file four times the page cache.

   Every run checks the program's outputs and exits 1 on a mismatch. *)

let header_len = Proto.Dgram_header.length
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let time_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* The major heap's high-water mark so far, in MB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let median xs = Stats.Summary.percentile xs 50.
let fail fmt = Printf.ksprintf failwith fmt

(* Compare [len] bytes of [a] at [aoff] with [b] at [boff]. *)
let range_equal a aoff b boff len =
  let rec go i =
    if i + 8 <= len then
      Int64.equal
        (Bytes.get_int64_ne a (aoff + i))
        (Bytes.get_int64_ne b (boff + i))
      && go (i + 8)
    else if i < len then
      Bytes.get a (aoff + i) = Bytes.get b (boff + i) && go (i + 1)
    else true
  in
  go 0

(* {1 Spans}

   Recorded only in the traced run, around every call the benchmark
   makes into a layer's public functions and around the benchmark's own
   callbacks.  Each span keeps name, start, end, parent and operation
   id in preallocated arrays (the first [cap]; later ones are
   aggregated but not kept) and is written out when the run ends.  Self
   time is a span's duration minus the time its child spans cover. *)

module Span = struct
  let names =
    [|
      "simcore.step";
      "bench.callback";
      "genie.output";
      "genie.input";
      "store.read";
      "store.write";
      "store.sendfile";
      "store.fsync";
      "workload.fabric_run";
    |]

  let step = 0
  let callback = 1
  let output = 2
  let input = 3
  let read = 4
  let write = 5
  let sendfile = 6
  let fsync = 7
  let fabric = 8
  let on = ref false
  let op = ref 0
  let calls = Array.make (Array.length names) 0
  let self = Array.make (Array.length names) 0
  let cap = 1 lsl 18
  let rec_name = ref [||]
  let rec_start = ref [||]
  let rec_end = ref [||]
  let rec_parent = ref [||]
  let rec_op = ref [||]
  let recorded = ref 0
  let dropped = ref 0
  let max_depth = 64
  let st_name = Array.make max_depth 0
  let st_start = Array.make max_depth 0
  let st_child = Array.make max_depth 0
  let st_rec = Array.make max_depth (-1)
  let depth = ref 0
  let top = ref 0  (* ns covered by top-level spans *)

  let start () =
    rec_name := Array.make cap 0;
    rec_start := Array.make cap 0;
    rec_end := Array.make cap 0;
    rec_parent := Array.make cap 0;
    rec_op := Array.make cap 0;
    on := true

  let enter id =
    let d = !depth in
    let t = now_ns () in
    st_name.(d) <- id;
    st_start.(d) <- t;
    st_child.(d) <- 0;
    (if !recorded < cap then begin
       let i = !recorded in
       incr recorded;
       !rec_name.(i) <- id;
       !rec_start.(i) <- t;
       !rec_parent.(i) <- (if d > 0 then st_rec.(d - 1) else -1);
       !rec_op.(i) <- !op;
       st_rec.(d) <- i
     end
     else begin
       incr dropped;
       st_rec.(d) <- -1
     end);
    depth := d + 1

  let leave () =
    let d = !depth - 1 in
    depth := d;
    let t = now_ns () in
    let dur = t - st_start.(d) in
    let id = st_name.(d) in
    calls.(id) <- calls.(id) + 1;
    self.(id) <- self.(id) + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur else top := !top + dur;
    if st_rec.(d) >= 0 then !rec_end.(st_rec.(d)) <- t

  let wrap id f =
    if not !on then f ()
    else begin
      enter id;
      match f () with
      | v ->
        leave ();
        v
      | exception e ->
        leave ();
        raise e
    end

  (* A benchmark callback handed to the program. *)
  let cb f x = wrap callback (fun () -> f x)

  let self_us id = float_of_int self.(id) /. 1e3

  let per_call_us id =
    if calls.(id) = 0 then 0. else self_us id /. float_of_int calls.(id)

  let write_out path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_ns\tend_ns\tparent\top\n";
    for i = 0 to !recorded - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(!rec_name.(i))
        !rec_start.(i) !rec_end.(i) !rec_parent.(i) !rec_op.(i)
    done;
    close_out oc
end

(* {1 GC pauses}

   Read from the stdlib [Runtime_events] ring of this process: the time
   any domain spends inside a runtime (GC) phase, counting nested phases
   once. *)

module Gc_pause = struct
  let depth = Array.make 256 0
  let began = Array.make 256 0
  let total = ref 0
  let lost = ref 0
  let cursor = ref None

  let callbacks =
    let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun d t _ ->
        if depth.(d) = 0 then began.(d) <- ts t;
        depth.(d) <- depth.(d) + 1)
      ~runtime_end:(fun d t _ ->
        if depth.(d) > 0 then begin
          depth.(d) <- depth.(d) - 1;
          if depth.(d) = 0 then total := !total + (ts t - began.(d))
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    poll ();
    total := 0;
    lost := 0
end

(* {1 Kernels}

   Layer functions the benchmark never calls directly, timed alone at
   the workload's own sizes.  Each is warmed, its result checked live,
   and timed as the median of three passes. *)

let crc_kernel sizes =
  let rng = Simcore.Rng.create ~seed:11 in
  let bufs =
    Array.map
      (fun n -> Bytes.init n (fun _ -> Char.chr (Simcore.Rng.int rng ~bound:256)))
      sizes
  in
  let want = Array.map Net.Crc32.digest bufs in
  let bytes = Array.fold_left ( + ) 0 sizes in
  let reps = max 1 (8_000_000 / bytes) in
  let pass () =
    for _ = 1 to reps do
      Array.iteri
        (fun i b ->
          let c = Net.Crc32.update Net.Crc32.init b ~off:0 ~len:(Bytes.length b) in
          if not (Int32.equal (Net.Crc32.finish c) want.(i)) then
            failwith "crc kernel: the update fold disagrees with Crc32.digest")
        bufs
    done
  in
  pass ();
  let ns = median (List.init 3 (fun _ -> float_of_int (time_ns pass))) in
  ns /. (float_of_int (reps * bytes) /. 1024.)

(* ns per no-op event: schedule plus dispatch, [pending] events queued. *)
let engine_kernel ~pending =
  let pending = max 1 pending in
  let events = 200_000 in
  let delay i = Simcore.Sim_time.of_ns (1 + (i * 7919 mod 50_000)) in
  let pass () =
    let e = Simcore.Engine.create () in
    let fired = ref 0 in
    let rec ev i () =
      incr fired;
      if !fired + pending <= events then
        Simcore.Engine.schedule e ~delay:(delay i) (ev (i + 1))
    in
    for i = 0 to pending - 1 do
      Simcore.Engine.schedule e ~delay:(delay i) (ev i)
    done;
    let ns = time_ns (fun () -> Simcore.Engine.run e) in
    if !fired <> events then fail "engine kernel: %d of %d events ran" !fired events;
    float_of_int ns
  in
  ignore (pass ());
  median (List.init 3 (fun _ -> pass ())) /. float_of_int events

(* ns per flow-table cycle: one free and one alloc, [live] flows open. *)
let flow_table_kernel ~live =
  let cycles = 1_000_000 in
  let pass () =
    let ft = Genie.Flow_table.create ~initial:32 ~dummy:(-1) () in
    let ring = Array.init live (fun i -> Genie.Flow_table.alloc ft i) in
    let ns =
      time_ns (fun () ->
          for c = 0 to cycles - 1 do
            let k = c mod live in
            if not (Genie.Flow_table.free ft ring.(k)) then
              failwith "flow-table kernel: a live handle did not free";
            ring.(k) <- Genie.Flow_table.alloc ft c
          done)
    in
    if Genie.Flow_table.live ft <> live || Genie.Flow_table.allocs ft <> live + cycles
    then failwith "flow-table kernel: live or alloc count is wrong";
    float_of_int ns
  in
  ignore (pass ());
  median (List.init 3 (fun _ -> pass ())) /. float_of_int cycles

(* ns per Streaming_summary.add of samples at the workload's latency scale. *)
let summary_kernel ~scale =
  let rng = Simcore.Rng.create ~seed:13 in
  let mean = Float.max 1. scale in
  let xs = Array.init 4096 (fun _ -> Simcore.Rng.exponential rng ~mean) in
  let n = 1_000_000 in
  let pass () =
    let s = Stats.Streaming_summary.create () in
    let ns =
      time_ns (fun () ->
          for i = 0 to n - 1 do
            Stats.Streaming_summary.add s xs.(i land 4095)
          done)
    in
    if Stats.Streaming_summary.count s <> n then
      failwith "summary kernel: sample count is wrong";
    float_of_int ns
  in
  ignore (pass ());
  median (List.init 3 (fun _ -> pass ())) /. float_of_int n

(* {1 Results} *)

type e2e = {
  setup_s : float;  (** median over [setups] set-ups *)
  setups : int;
  ops_per_s : float;  (** [slice_rate] over slices of the timed phase *)
  payload_mb_per_s : float;
  slices : int;
  timed_s : float;
  ops : int;  (** operations completed in the timed phase *)
  attempted : int;
  failed : int;  (** completed with wrong or short data *)
  again : int;  (** refused by the program with typed back-pressure ([`Again]) *)
  refused : int;  (** fabric arrivals that found no free circuit *)
  mismatches : string list;  (** output checks that failed *)
  lat_p50 : float;
  lat_p99 : float;
  lat_n : int;
  goodput_mbps : float;
  heap_mb : float;
      (** top heap once the fixed sim_* population is done: the program's
          heap creeps per operation, so a reading at the end of the timed
          phase would grow with host speed *)
  kind_shares : (string * float) list;  (** host-time share of each op kind *)
}

(* Per-layer inputs a traced run gathers. *)
type traced = {
  t_ops : int;
  wall_ns : int;  (** traced phase *)
  base_ns_per_op : float;  (** untraced phase, same workload and seed *)
  minor_words_per_op : float;  (** untraced phase *)
  major_collections : int;  (** traced phase *)
  events : int;  (** engine steps the benchmark made; 0 when it makes none *)
  pending_avg : float;
  crc_bytes : int;  (** bytes CRC'd on tx and rx *)
  crc_sizes : int array;  (** PDU sizes the CRC kernel runs at *)
  counter : string -> int;  (** tracer counter summed over hosts *)
  flow_cycles : int;
  summary_adds : int;
  latency_scale : float;
  shard2 : float;  (** 0 when not measured *)
  kind_ns : (string * int) list;  (** host ns spent in each op kind *)
  t_notes : string list;
}

let check_outputs = function
  | [] -> ()
  | errs ->
    List.iter (fun e -> Printf.printf "MISMATCH: %s\n" e) errs

(* Slice-rate bookkeeping for the timed phase. *)
type slicer = {
  t0 : int;
  mutable last_ns : int;
  mutable last_ops : int;
  mutable last_bytes : int;
  mutable rates : float list;
  mutable mb : float list;
}

let slicer () =
  let t = now_ns () in
  { t0 = t; last_ns = t; last_ops = 0; last_bytes = 0; rates = []; mb = [] }

let slice s ~ops ~bytes =
  let t = now_ns () in
  let dt = secs (t - s.last_ns) in
  if dt > 0. && ops > s.last_ops then begin
    s.rates <- (float_of_int (ops - s.last_ops) /. dt) :: s.rates;
    s.mb <- (float_of_int (bytes - s.last_bytes) /. 1e6 /. dt) :: s.mb
  end;
  s.last_ns <- t;
  s.last_ops <- ops;
  s.last_bytes <- bytes

(* Host-speed rates report the 90th percentile of the slice rates.  On a
   shared host, neighbour load slows stretches of a run by up to a third.
   Over five 30 s pingpong-small runs on a shared 2-core x86-64 VM, the
   median slice rate spread 0.18 (IQR / median), and the 90th percentile
   0.024. *)
let slice_rate rates = Stats.Summary.percentile rates 90.

let timed_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let v = f () in
    times := secs (now_ns () - t0) :: !times;
    last := Some v
  done;
  (* Garbage from the earlier set-ups must not inflate the timed phase's heap. *)
  Gc.full_major ();
  match !last with
  | Some v -> (median !times, v)
  | None -> assert false

let counter_sum tracer name =
  List.fold_left
    (fun acc (_, n, v) -> if n = name then acc + v else acc)
    0
    (Simcore.Tracer.counters tracer)

(* {1 Closed loops}

   pingpong-small and storage-mix keep one unit of work in flight (a
   ping-pong round, a file op) and step the engine until it is done.  A
   workload builds a [Loop.t] around its world and supplies the function
   that starts the next unit; the loop keeps the counts, the simulated
   latency of the first [sim_ops] operations, and the host time spent in
   each kind of unit. *)

module Loop = struct
  type t = {
    world : Genie.World.t;
    sim_ops : int;
    lat : float array;
    kinds : string array;
    kind_ns : int array;
    mutable kind : int;
    mutable host_t0 : int;
    mutable busy : bool;
    mutable backoff : bool;  (** the last start was refused with [`Again] *)
    mutable refused_run : int;  (** refusals since the last completion *)
    mutable attempted : int;
    mutable completed : int;
    mutable failed : int;
    mutable again : int;
    mutable payload : int;
    mutable crc_bytes : int;
    mutable events : int;
    mutable sent_at : float;
    mutable sim_t0 : float;
    mutable sim_t_end : float;
    mutable sim_bytes : int;
    mutable heap_mb : float;
    mutable errors : string list;
  }

  let create world ~sim_ops ~kinds =
    {
      world;
      sim_ops;
      lat = Array.make sim_ops 0.;
      kinds;
      kind_ns = Array.make (Array.length kinds) 0;
      kind = 0;
      host_t0 = 0;
      busy = false;
      backoff = false;
      refused_run = 0;
      attempted = 0;
      completed = 0;
      failed = 0;
      again = 0;
      payload = 0;
      crc_bytes = 0;
      events = 0;
      sent_at = 0.;
      sim_t0 = 0.;
      sim_t_end = 0.;
      sim_bytes = 0;
      heap_mb = 0.;
      errors = [];
    }

  let now t = Genie.Host.now_us t.world.Genie.World.a

  let error t fmt =
    Printf.ksprintf
      (fun s -> if List.length t.errors < 5 then t.errors <- s :: t.errors)
      fmt

  (* One operation handed to the program. *)
  let sent t =
    if t.attempted = 0 then t.sim_t0 <- now t;
    t.attempted <- t.attempted + 1;
    Span.op := t.attempted;
    t.sent_at <- now t

  (* The unit of work of kind [kind] starts with its first operation. *)
  let start t ~kind =
    t.busy <- true;
    t.kind <- kind;
    t.host_t0 <- now_ns ();
    sent t

  let stop t =
    t.kind_ns.(t.kind) <- t.kind_ns.(t.kind) + (now_ns () - t.host_t0);
    t.busy <- false

  (* The program refused the operation with typed back-pressure.  It is
     counted, not a mismatch; the loop lets the engine take one step, if
     it has one, before starting the next unit. *)
  let refused t =
    t.again <- t.again + 1;
    t.refused_run <- t.refused_run + 1;
    if t.refused_run > 10_000 then
      fail "10000 operations in a row were refused with `Again";
    t.backoff <- true;
    stop t

  (* An operation completed.  [ok] is false when its data was wrong or
     short; the caller reports the mismatch.  [last] ends the unit. *)
  let arrived t ~ok ~bytes ~last =
    t.completed <- t.completed + 1;
    t.refused_run <- 0;
    if ok then t.payload <- t.payload + bytes else t.failed <- t.failed + 1;
    if t.completed <= t.sim_ops then begin
      t.lat.(t.completed - 1) <- now t -. t.sent_at;
      if t.completed = t.sim_ops then begin
        t.sim_t_end <- now t;
        t.sim_bytes <- t.payload;
        t.heap_mb <- top_heap_mb ()
      end
    end;
    if last then stop t

  (* Start units with [start_unit] until [stop ()] holds with nothing in
     flight.  [every] runs each 64 loop iterations. *)
  let drive t ~start_unit ~stop ~every =
    let engine = t.world.Genie.World.engine in
    let i = ref 0 in
    let fin = ref false in
    while not !fin do
      if t.busy || t.backoff then begin
        if Span.wrap Span.step (fun () -> Simcore.Engine.step engine) then
          t.events <- t.events + 1
        else if t.busy then
          fail "the engine drained with operation %d in flight" t.attempted;
        t.backoff <- false
      end
      else if !i land 15 = 0 && stop () then fin := true
      else start_unit ();
      incr i;
      if !i land 63 = 0 then every ()
    done

  let sorted_lat t n =
    let a = Array.sub t.lat 0 n in
    Array.sort Float.compare a;
    a
end

(* A closed-loop workload. *)
type closed = {
  setup : seed:int -> Simcore.Tracer.t option -> Loop.t * (unit -> unit);
      (** a world ready for its first unit, and the function that starts one *)
  slice_ops : int;
  crc_sizes : seed:int -> int array;
}

let closed_e2e w ~seed ~seconds =
  let setup_s, (t, start_unit) = timed_setup 9 (fun () -> w.setup ~seed None) in
  let s = slicer () in
  let next = ref w.slice_ops in
  Loop.drive t ~start_unit
    ~stop:(fun () -> t.completed >= t.sim_ops && secs (now_ns () - s.t0) >= seconds)
    ~every:(fun () ->
      if t.completed >= !next then begin
        slice s ~ops:t.completed ~bytes:t.payload;
        next := t.completed + w.slice_ops
      end);
  slice s ~ops:t.completed ~bytes:t.payload;
  let timed_ns = now_ns () - s.t0 in
  let lat = Loop.sorted_lat t t.sim_ops in
  {
    setup_s;
    setups = 9;
    ops_per_s = slice_rate s.rates;
    payload_mb_per_s = slice_rate s.mb;
    slices = List.length s.rates;
    timed_s = secs timed_ns;
    ops = t.completed;
    attempted = t.attempted;
    failed = t.failed;
    again = t.again;
    refused = 0;
    mismatches = List.rev t.errors;
    lat_p50 = Stats.Summary.percentile_sorted lat 50.;
    lat_p99 = Stats.Summary.percentile_sorted lat 99.;
    lat_n = t.sim_ops;
    goodput_mbps = 8. *. float_of_int t.sim_bytes /. (t.sim_t_end -. t.sim_t0);
    heap_mb = t.heap_mb;
    kind_shares =
      Array.to_list
        (Array.mapi
           (fun k name -> (name, float_of_int t.kind_ns.(k) /. float_of_int timed_ns))
           t.kinds);
  }

(* Run untraced for [seconds/2], then the same operation count again
   with the tracer counters, the spans and Runtime_events on. *)
let closed_traced w ~seed ~seconds =
  let base, start_unit = w.setup ~seed None in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Loop.drive base ~start_unit
    ~stop:(fun () -> secs (now_ns () - t0) >= seconds /. 2.)
    ~every:ignore;
  let base_ns = now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  let ops0 = base.completed in
  let base_lat = Array.sub base.lat 0 (min ops0 base.sim_ops) in
  (* Only [base_lat] outlives the untraced world. *)
  Gc.full_major ();
  let tracer = Simcore.Tracer.create () in
  Simcore.Tracer.enable_counters tracer;
  let t, start_unit = w.setup ~seed (Some tracer) in
  (* Counters cover the timed operations only, not the set-up. *)
  Simcore.Tracer.clear tracer;
  let pend = ref 0 and samples = ref 0 in
  Gc_pause.start ();
  Span.start ();
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t1 = now_ns () in
  Loop.drive t ~start_unit
    ~stop:(fun () -> t.completed >= ops0)
    ~every:(fun () ->
      pend := !pend + Simcore.Engine.pending t.world.Genie.World.engine;
      incr samples;
      Gc_pause.poll ());
  let wall = now_ns () - t1 in
  Span.on := false;
  Gc_pause.poll ();
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let n = min (Array.length base_lat) t.completed in
  if Array.sub base_lat 0 n <> Array.sub t.lat 0 n then
    Loop.error t "the traced run's simulated latencies differ from the untraced run's";
  let lat = Loop.sorted_lat t (min t.completed t.sim_ops) in
  ( {
      t_ops = t.completed;
      wall_ns = wall;
      base_ns_per_op = float_of_int base_ns /. float_of_int ops0;
      minor_words_per_op = words /. float_of_int ops0;
      major_collections = major;
      events = t.events;
      pending_avg = float_of_int !pend /. float_of_int (max 1 !samples);
      crc_bytes = t.crc_bytes;
      crc_sizes = w.crc_sizes ~seed;
      counter = counter_sum tracer;
      flow_cycles = 0;
      summary_adds = 0;
      latency_scale = Stats.Summary.percentile_sorted lat 50.;
      shard2 = 0.;
      kind_ns = Array.to_list (Array.mapi (fun k name -> (name, t.kind_ns.(k))) t.kinds);
      t_notes = [];
    },
    List.rev t.errors )

(* {1 pingpong-small} *)

module Pingpong = struct
  let corners = Array.of_list Genie.Semantics.all
  let modes = [| Net.Adapter.Early_demux; Net.Adapter.Pooled; Net.Adapter.Outboard |]
  let nlens = 4096

  let lens ~seed =
    let rng = Simcore.Rng.create ~seed in
    Array.init nlens (fun _ -> 64 + Simcore.Rng.int rng ~bound:961)

  type side = {
    space : Vm.Address_space.t;
    eps : Genie.Endpoint.t array;  (** one per input-buffering mode *)
    app_send : int;
    app_recv : int;
    sys : Genie.Buf.t array;  (** per corner: this side's system-allocated buffer *)
  }

  type t = {
    loop : Loop.t;
    a : side;
    b : side;
    lens : int array;
    mutable round : int;
    mutable expected : bytes;
  }

  let sys c = Genie.Semantics.system_allocated corners.(c)
  let corner r = r mod 8
  let mode r = r / 8 mod 3
  let len t r = t.lens.(r mod nlens)

  let make_side host eps =
    let space = Genie.Host.new_space host in
    let psize = Genie.Host.page_size host in
    let page ?state () =
      Vm.Address_space.base_addr
        (Vm.Address_space.map_region space ~npages:1 ?state)
        ~page_size:psize
    in
    let app_send = page () and app_recv = page () in
    let sys =
      Array.init 8 (fun c ->
          let addr = if sys c then page ~state:Vm.Region.Moved_in () else app_send in
          Genie.Buf.make space ~addr ~len:1024)
    in
    { space; eps; app_send; app_recv; sys }

  let view (b : Genie.Buf.t) len =
    Genie.Buf.make b.Genie.Buf.space ~addr:b.Genie.Buf.addr ~len

  let recv_spec side c len =
    if sys c then Genie.Input_path.Sys_alloc { space = side.space; len }
    else
      Genie.Input_path.App_buffer (Genie.Buf.make side.space ~addr:side.app_recv ~len)

  (* Calls made inside a round, where a refusal cannot be retried. *)
  let must what = function
    | Ok v -> v
    | Error `Again -> fail "pingpong-small: %s returned `Again inside a round" what

  let arrived t (r : Genie.Input_path.result) len ~last =
    let ok =
      Genie.Input_path.ok r
      && r.Genie.Input_path.payload_len = len
      &&
      match r.Genie.Input_path.buf with
      | Some b -> range_equal (Genie.Buf.read (view b len)) 0 t.expected 0 len
      | None -> false
    in
    t.loop.crc_bytes <- t.loop.crc_bytes + (2 * (header_len + len));
    if not ok then
      Loop.error t.loop "round %d: datagram %d delivered a wrong payload" t.round
        t.loop.attempted;
    Loop.arrived t.loop ~ok ~bytes:len ~last

  let rec post_b t r =
    let c = corner r and l = len t r in
    ignore
      (must "input"
         (Span.wrap Span.input (fun () ->
              Genie.Endpoint.input t.b.eps.(mode r) ~sem:corners.(c)
                ~spec:(recv_spec t.b c l)
                ~on_complete:(Span.cb (on_b t r l)))))

  and on_b t r l (res : Genie.Input_path.result) =
    arrived t res l ~last:false;
    let c = corner r in
    let echo =
      if sys c then
        match res.Genie.Input_path.buf with
        | Some b -> view b l
        | None -> fail "pingpong-small: round %d forward leg lost its buffer" r
      else Genie.Buf.make t.b.space ~addr:t.b.app_recv ~len:l
    in
    Loop.sent t.loop;
    ignore
      (must "output"
         (Span.wrap Span.output (fun () ->
              Genie.Endpoint.output t.b.eps.(mode r) ~sem:corners.(c) ~buf:echo ())));
    post_b t (r + 1)

  and on_a t r l (res : Genie.Input_path.result) =
    let c = corner r in
    (if sys c then
       match res.Genie.Input_path.buf with
       | Some b -> t.a.sys.(c) <- b
       | None -> fail "pingpong-small: round %d echo leg lost its buffer" r);
    arrived t res l ~last:true;
    t.round <- r + 1

  (* A round: the forward datagram, then its echo.  A refused forward
     output is retried as the same round. *)
  let start_round t () =
    let r = t.round in
    let c = corner r and m = mode r and l = len t r in
    let buf =
      if sys c then view t.a.sys.(c) l
      else Genie.Buf.make t.a.space ~addr:t.a.app_send ~len:l
    in
    t.expected <- Genie.Buf.expected_pattern ~len:l ~seed:r;
    Genie.Buf.write buf t.expected;
    Loop.start t.loop ~kind:0;
    match
      Span.wrap Span.output (fun () ->
          Genie.Endpoint.output t.a.eps.(m) ~sem:corners.(c) ~buf ())
    with
    | Error `Again -> Loop.refused t.loop
    | Ok _ ->
      ignore
        (must "input"
           (Span.wrap Span.input (fun () ->
                Genie.Endpoint.input t.a.eps.(m) ~sem:corners.(c)
                  ~spec:(recv_spec t.a c l) ~on_complete:(Span.cb (on_a t r l)))))

  let setup ~seed trace =
    let world = Genie.World.create ?trace () in
    let pairs =
      Array.mapi (fun i mode -> Genie.World.endpoint_pair world ~vc:(5 + i) ~mode) modes
    in
    let t =
      {
        loop = Loop.create world ~sim_ops:100_000 ~kinds:[| "round" |];
        a = make_side world.Genie.World.a (Array.map fst pairs);
        b = make_side world.Genie.World.b (Array.map snd pairs);
        lens = lens ~seed;
        round = 0;
        expected = Bytes.empty;
      }
    in
    post_b t 0;
    (t.loop, start_round t)

  let workload =
    {
      setup;
      slice_ops = 16_384;
      crc_sizes = (fun ~seed -> Array.map (fun l -> l + header_len) (lens ~seed));
    }
end

(* {1 storage-mix} *)

module Storage = struct
  let io = 16384
  let cache_pages = Store.Page_cache.default_config.Store.Page_cache.max_pages
  let file_pages = 4 * cache_pages
  let blocks = 8

  (* The op mix takes the relative weights of the fuzzer's storage regime
     (lib/check/fuzzer.ml): write 3, read 2, fsync 1, sendfile 1.  Its
     fifth storage action, drop_caches / writeback_now, is cache control
     rather than an application file op and is left out. *)
  let kinds = [| "read"; "write"; "sendfile"; "fsync" |]
  let weights = [| 2; 3; 1; 1 |]
  let weight_sum = Array.fold_left ( + ) 0 weights

  let draw rng =
    let rec go k u = if u < weights.(k) then k else go (k + 1) (u - weights.(k)) in
    go 0 (Simcore.Rng.int rng ~bound:weight_sum)

  type t = {
    loop : Loop.t;
    fio : Genie.File_io.t;
    fd : int;
    ea : Genie.Endpoint.t;
    eb : Genie.Endpoint.t;
    rbuf : Genie.Buf.t;
    shadow : Bytes.t;
    psize : int;
    rng : Simcore.Rng.t;
    templates : bytes array;
    mutable parts : int;
    mutable part_ok : bool;
  }

  let random_bytes rng n =
    let b = Bytes.create n in
    for i = 0 to (n / 8) - 1 do
      Bytes.set_int64_le b (8 * i) (Simcore.Rng.next_int64 rng)
    done;
    b

  let finish t ~ok ~bytes =
    if not ok then
      Loop.error t.loop "op %d (%s) returned wrong or short data" t.loop.attempted
        kinds.(t.loop.kind);
    Loop.arrived t.loop ~ok ~bytes ~last:true

  (* sendfile completes when the peer has the bytes and the adapter has
     disposed the cache references. *)
  let part t ~ok =
    t.part_ok <- t.part_ok && ok;
    t.parts <- t.parts - 1;
    if t.parts = 0 then begin
      if t.part_ok then t.loop.crc_bytes <- t.loop.crc_bytes + (2 * (header_len + io));
      finish t ~ok:t.part_ok ~bytes:io
    end

  let accepted t = function
    | Ok _ -> ()
    | Error `Again -> Loop.refused t.loop

  let start_op t () =
    let kind = draw t.rng in
    let page = Simcore.Rng.int t.rng ~bound:(file_pages - (io / t.psize) + 1) in
    let off = t.psize * page in
    Loop.start t.loop ~kind;
    match kinds.(kind) with
    | "read" ->
      accepted t
        (Span.wrap Span.read (fun () ->
             Genie.File_io.read t.fio ~fd:t.fd ~off ~len:io
               ~on_complete:
                 (Span.cb (fun data ->
                      finish t ~bytes:io
                        ~ok:(Bytes.length data = io && range_equal data 0 t.shadow off io)))))
    | "write" -> (
      let data = Bytes.copy t.templates.(Simcore.Rng.int t.rng ~bound:blocks) in
      Bytes.set_int64_le data 0 (Int64.of_int t.loop.attempted);
      Bytes.set_int64_le data (io - 8) (Int64.of_int off);
      match
        Span.wrap Span.write (fun () ->
            Genie.File_io.write t.fio ~fd:t.fd ~off ~data
              ~on_complete:(Span.cb (fun () -> finish t ~ok:true ~bytes:io)))
      with
      | Ok () -> Bytes.blit data 0 t.shadow off io
      | Error `Again -> Loop.refused t.loop)
    | "sendfile" -> (
      t.parts <- 2;
      t.part_ok <- true;
      let h =
        match
          Span.wrap Span.input (fun () ->
              Genie.Endpoint.input t.eb ~sem:Genie.Semantics.emulated_share
                ~spec:(Genie.Input_path.App_buffer t.rbuf)
                ~on_complete:
                  (Span.cb (fun r ->
                       part t
                         ~ok:
                           (Genie.Input_path.ok r
                           && r.Genie.Input_path.payload_len = io
                           && range_equal (Genie.Buf.read t.rbuf) 0 t.shadow off io))))
        with
        | Ok h -> h
        | Error `Again -> fail "storage-mix: an application-buffer input returned `Again"
      in
      match
        Span.wrap Span.sendfile (fun () ->
            Genie.File_io.sendfile t.fio t.ea ~fd:t.fd ~off ~len:io
              ~on_complete:(Span.cb (fun () -> part t ~ok:true))
              ())
      with
      | Ok _ -> ()
      | Error `Again ->
        ignore (Genie.Endpoint.cancel h);
        Loop.refused t.loop)
    | _ ->
      Span.wrap Span.fsync (fun () ->
          Genie.File_io.fsync t.fio ~fd:t.fd
            ~on_complete:(Span.cb (fun () -> finish t ~ok:true ~bytes:0)))

  let setup ~seed trace =
    let world = Genie.World.create ?trace () in
    let fio = Genie.File_io.create world.Genie.World.a in
    let ea, eb = Genie.World.endpoint_pair world ~vc:1 ~mode:Net.Adapter.Early_demux in
    let fd = Genie.File_io.open_file fio in
    let psize = Genie.Host.page_size world.Genie.World.a in
    let rng = Simcore.Rng.create ~seed in
    let shadow = random_bytes rng (file_pages * psize) in
    (* Populate the file, then make it durable. *)
    let written = ref 0 in
    let nchunks = file_pages * psize / io in
    for i = 0 to nchunks - 1 do
      match
        Genie.File_io.write fio ~fd ~off:(i * io) ~data:(Bytes.sub shadow (i * io) io)
          ~on_complete:(fun () -> incr written)
      with
      | Ok () -> Genie.World.run world
      | Error `Again -> failwith "storage-mix: populating write returned `Again"
    done;
    Genie.File_io.fsync fio ~fd ~on_complete:ignore;
    Genie.World.run world;
    if !written <> nchunks then
      failwith "storage-mix: populating writes did not complete";
    let bspace = Genie.Host.new_space world.Genie.World.b in
    let region = Vm.Address_space.map_region bspace ~npages:(io / psize) in
    let rbuf =
      Genie.Buf.make bspace
        ~addr:(Vm.Address_space.base_addr region ~page_size:psize)
        ~len:io
    in
    let t =
      {
        loop = Loop.create world ~sim_ops:40_000 ~kinds;
        fio;
        fd;
        ea;
        eb;
        rbuf;
        shadow;
        psize;
        rng;
        templates = Array.init blocks (fun _ -> random_bytes rng io);
        parts = 0;
        part_ok = true;
      }
    in
    (t.loop, start_op t)

  let workload =
    {
      setup;
      slice_ops = 2048;
      crc_sizes = (fun ~seed:_ -> [| io + header_len |]);
    }
end

(* {1 fabric-bulk} *)

module Fabric_bulk = struct
  module F = Workload.Fabric

  (* A unit: one [Fabric.run] of [flows] flows, about 2.5 s at 2.6k
     flows/s on a 2-core x86-64 container.  [units] of them, the fixed
     sim_* population, fit inside a 30 s run. *)
  let flows = 6500
  let config ~seed ~domains = { F.default with F.seed; flows; domains }

  (* Chunks of every offered flow, replaying the generator's draws on
     each port's stream.  Equal to the accepted flows' chunks when no
     arrival was refused (a refused arrival skips one draw, so the replay
     only holds then). *)
  let offered_chunks (cfg : F.config) =
    let root = Simcore.Rng.create ~seed:cfg.F.seed in
    let lo = float_of_int cfg.F.size_min and hi = float_of_int cfg.F.size_max in
    let total = ref 0 in
    for i = 0 to cfg.F.ports - 1 do
      let rng = Simcore.Rng.stream root ~id:i in
      for _ = 1 to cfg.F.circuits_per_port do
        ignore (Simcore.Rng.int rng ~bound:4)
      done;
      let quota =
        (cfg.F.flows / cfg.F.ports) + if i < cfg.F.flows mod cfg.F.ports then 1 else 0
      in
      for _ = 1 to quota do
        let size = Simcore.Rng.bounded_pareto rng ~alpha:cfg.F.alpha ~lo ~hi in
        ignore (Simcore.Rng.int rng ~bound:cfg.F.hosts);
        ignore (Simcore.Rng.float rng);
        let chunk = cfg.F.chunk_bytes in
        total := !total + max 1 ((int_of_float size + chunk - 1) / chunk);
        ignore (Simcore.Rng.int rng ~bound:4)
      done
    done;
    !total

  let check cfg ~chunks (o : F.outcome) =
    let chunk = cfg.F.chunk_bytes in
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        ( o.F.offered = cfg.F.flows,
          Printf.sprintf "offered %d of %d flows" o.F.offered cfg.F.flows );
        ( o.F.offered = o.F.accepted + o.F.rejected,
          Printf.sprintf "offered %d <> accepted %d + rejected %d" o.F.offered
            o.F.accepted o.F.rejected );
        ( o.F.completed = o.F.accepted,
          Printf.sprintf "completed %d <> accepted %d" o.F.completed o.F.accepted );
        (o.F.crc_failures = 0, Printf.sprintf "%d CRC failures" o.F.crc_failures);
        ( o.F.rx_bytes mod chunk = 0 && o.F.rx_bytes / chunk >= o.F.completed,
          Printf.sprintf "rx_bytes %d is not whole chunks of the completed flows"
            o.F.rx_bytes );
        ( o.F.rejected > 0 || o.F.rx_bytes = chunks * chunk,
          Printf.sprintf "rx_bytes %d <> chunk sum %d of the accepted flows"
            o.F.rx_bytes (chunks * chunk) );
      ]

  (* The sim_* population: [units] runs on sub-seeds of the seed, merged,
     so that the sojourn p99 is steady from seed to seed.  [Fabric.run]
     reports sojourns only as a [Streaming_summary], so fabric quantiles
     are its bucketed nearest-rank ones; the closed loops keep every
     sample and take [Stats.Summary]'s exact percentiles. *)
  let units = 10
  let sub_seed seed i = (seed * 1000) + i

  let e2e ~seed ~seconds =
    let cfgs = Array.init units (fun i -> config ~seed:(sub_seed seed i) ~domains:1) in
    let setup_s, () =
      timed_setup 9 (fun () ->
          ignore (F.run { cfgs.(0) with F.flows = cfgs.(0).F.ports }))
    in
    let chunks = Array.map offered_chunks cfgs in
    let s = slicer () in
    let firsts = Array.make units None and errors = ref [] in
    let heap_mb = ref 0. in
    let n = ref 0 and attempted = ref 0 and failed = ref 0 and refused = ref 0 in
    let ops = ref 0 and bytes = ref 0 in
    while !n < units || secs (now_ns () - s.t0) < seconds do
      let i = !n mod units in
      let o = F.run cfgs.(i) in
      incr n;
      attempted := !attempted + o.F.offered;
      failed := !failed + o.F.crc_failures;
      refused := !refused + o.F.rejected;
      ops := !ops + o.F.completed;
      bytes := !bytes + o.F.rx_bytes;
      slice s ~ops:!ops ~bytes:!bytes;
      (* Each unit starts on a collected heap, as a fresh process would;
         the collection is kept out of the slices. *)
      Gc.full_major ();
      s.last_ns <- now_ns ();
      if !n = units then heap_mb := top_heap_mb ();
      errors := !errors @ check cfgs.(i) ~chunks:chunks.(i) o;
      match firsts.(i) with
      | None -> firsts.(i) <- Some o
      | Some f ->
        if f.F.digest <> o.F.digest then
          errors :=
            !errors
            @ [
                Printf.sprintf "run %d of seed %d changed its digest" !n
                  (sub_seed seed i);
              ]
    done;
    let timed = secs (now_ns () - s.t0) in
    let os = Array.map Option.get firsts in
    let digests =
      List.sort_uniq compare (Array.to_list (Array.map (fun o -> o.F.digest) os))
    in
    if List.length digests <> units then
      errors :=
        !errors
        @ [ "different seeds gave one digest: the seed does not reach the generator" ];
    let sojourn =
      Array.fold_left
        (fun acc o -> Stats.Streaming_summary.merge acc o.F.sojourn_us)
        (Stats.Streaming_summary.create ()) os
    in
    let q p = Stats.Streaming_summary.quantile sojourn p in
    let sum f = Array.fold_left (fun acc o -> acc +. f o) 0. os in
    if !refused > 0 then
      Printf.printf
        "note: %d refused arrivals; rx_bytes of those runs is checked as whole \
         chunks only\n"
        !refused;
    {
      setup_s;
      setups = 9;
      ops_per_s = slice_rate s.rates;
      payload_mb_per_s = slice_rate s.mb;
      slices = !n;
      timed_s = timed;
      ops = !ops;
      attempted = !attempted;
      failed = !failed;
      again = 0;
      refused = !refused;
      mismatches = !errors;
      lat_p50 = q 0.5;
      lat_p99 = q 0.99;
      lat_n = Stats.Streaming_summary.count sojourn;
      goodput_mbps =
        8.
        *. sum (fun o -> float_of_int o.F.rx_bytes)
        /. sum (fun o -> o.F.duration_us);
      heap_mb = !heap_mb;
      kind_shares = [];
    }

  (* Untimed warm-up first, so that every timed run below starts on a
     grown heap; then domains = 1 and domains = 2 back to back, each
     after a [Gc.full_major]; then the traced run.  A fixed four units,
     whatever [--seconds] says. *)
  let traced ~seed ~seconds:_ =
    let cfg = config ~seed:(sub_seed seed 0) ~domains:1 in
    let chunks = offered_chunks cfg in
    let warm = F.run cfg in
    let run domains =
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let o, ns = timed (fun () -> F.run { cfg with F.domains }) in
      (o, ns, Gc.minor_words () -. w0)
    in
    let base, base_ns, words = run 1 in
    let o2, wall2, _ = run 2 in
    Gc.full_major ();
    Gc_pause.start ();
    Span.start ();
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let o, wall = timed (fun () -> Span.wrap Span.fabric (fun () -> F.run cfg)) in
    Span.on := false;
    Gc_pause.poll ();
    let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
    let same what (x : F.outcome) =
      if x.F.digest = warm.F.digest then []
      else [ Printf.sprintf "the %s digest differs from the first run's" what ]
    in
    let errors =
      List.concat_map (check cfg ~chunks) [ warm; base; o ]
      @ same "repeated" base @ same "traced" o @ same "domains = 2" o2
    in
    let pdus = o.F.rx_bytes / cfg.F.chunk_bytes + o.F.crc_failures in
    ( {
        t_ops = o.F.completed;
        wall_ns = wall;
        base_ns_per_op = float_of_int base_ns /. float_of_int base.F.completed;
        minor_words_per_op = words /. float_of_int base.F.completed;
        major_collections = major;
        events = 0;
        pending_avg = float_of_int (cfg.F.ports * cfg.F.circuits_per_port);
        crc_bytes = 2 * pdus * (cfg.F.chunk_bytes + header_len);
        crc_sizes = [| cfg.F.chunk_bytes + header_len |];
        counter = (function "rx_pdus" -> pdus | _ -> 0);
        flow_cycles = o.F.accepted;
        summary_adds = o.F.completed;
        latency_scale = Stats.Streaming_summary.quantile o.F.sojourn_us 0.5;
        shard2 = float_of_int base_ns /. float_of_int wall2;
        kind_ns = [];
        t_notes =
          [
            "Workload.Fabric.run takes no tracer: genie, vm, memory and engine-step \
             metrics read 0 here; net.rx_pdus is the delivered chunk count";
            "the traced run adds one span and Runtime_events only, so \
             trace.overhead_frac is near 0 here by construction";
          ];
      },
      errors )
end

(* {1 Reporting} *)

let workloads = [ "fabric-bulk"; "pingpong-small"; "storage-mix" ]

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else fail "metric value %f" v

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_lines metrics =
  List.iter
    (fun (name, unit, v, note) ->
      Printf.printf "  %-32s %14.6g %-10s %s\n" name v unit note)
    metrics

let e2e_metrics (r : e2e) =
  let err =
    float_of_int (r.failed + r.again + r.refused) /. float_of_int (max 1 r.attempted)
  in
  Printf.printf
    "error_frac = %.6g (%d wrong or short, %d `Again, %d refused arrivals of %d \
     attempted)\n"
    err r.failed r.again r.refused r.attempted;
  if List.length r.kind_shares > 1 then
    Printf.printf "host-time share of the timed wall by op kind: %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) r.kind_shares));
  [
    ("setup_s", "s", r.setup_s, Printf.sprintf "median of %d set-ups" r.setups);
    ( "ops_per_s",
      "1/s",
      r.ops_per_s,
      Printf.sprintf "p90 of %d slices; %d ops in %.2f s" r.slices r.ops r.timed_s );
    ( "payload_mb_per_s",
      "MB/s",
      r.payload_mb_per_s,
      "simulated payload per host second" );
    ("peak_heap_mb", "MB", r.heap_mb, "Gc top_heap_words after the sim_* population");
    ( "ok_frac",
      "frac",
      1. -. err,
      Printf.sprintf "1 - error_frac; base %d attempted" r.attempted );
    ("sim_latency_p50_us", "us", r.lat_p50, Printf.sprintf "%d samples" r.lat_n);
    ("sim_latency_p99_us", "us", r.lat_p99, Printf.sprintf "%d samples" r.lat_n);
    ("sim_goodput_mbps", "Mbit/s", r.goodput_mbps, "payload bits per simulated us");
  ]

(* Per-layer metrics: (name, unit, value, note), with the end-to-end
   metric each should move in METRICS.md. *)
let layer_metrics (t : traced) =
  let ops = float_of_int (max 1 t.t_ops) in
  let wall = float_of_int t.wall_ns in
  let per_op n = float_of_int n /. ops in
  let c name = t.counter name in
  let share ns = ns /. wall in
  let crc_ns_per_kb = crc_kernel t.crc_sizes in
  let ns_per_event = engine_kernel ~pending:(int_of_float t.pending_avg) in
  let ft_ns = flow_table_kernel ~live:4 in
  let sum_ns = summary_kernel ~scale:t.latency_scale in
  let crc_share = share (crc_ns_per_kb *. float_of_int t.crc_bytes /. 1024.) in
  let dispatch_share = share (ns_per_event *. float_of_int t.events) in
  let ft_share = share (ft_ns *. float_of_int t.flow_cycles) in
  let sum_share = share (sum_ns *. float_of_int t.summary_adds) in
  let gc_share = share (float_of_int !Gc_pause.total) in
  let bench_share =
    share
      (float_of_int Span.self.(Span.callback)
      +. Float.max 0. (wall -. float_of_int !Span.top))
  in
  let attributed =
    crc_share +. dispatch_share +. ft_share +. sum_share +. gc_share +. bench_share
  in
  let hits = c "cache_hits" and misses = c "cache_misses" in
  let per_call id what =
    ( Span.per_call_us id,
      Printf.sprintf "%d %s calls, span self time" Span.calls.(id) what )
  in
  let out_us, out_n = per_call Span.output "Endpoint.output"
  and in_us, in_n = per_call Span.input "Endpoint.input"
  and rd_us, rd_n = per_call Span.read "File_io.read"
  and wr_us, wr_n = per_call Span.write "File_io.write"
  and sf_us, sf_n = per_call Span.sendfile "File_io.sendfile"
  and fs_us, fs_n = per_call Span.fsync "File_io.fsync" in
  let base = Printf.sprintf "base %d ops" t.t_ops in
  let of_wall = Printf.sprintf "of the %.3f s traced wall" (secs t.wall_ns) in
  let kind_share k =
    ( "store." ^ k ^ "_wall_share",
      "frac",
      share (float_of_int (Option.value (List.assoc_opt k t.kind_ns) ~default:0)),
      Printf.sprintf "host time from issuing a %s to its completion %s" k of_wall )
  in
  [
    ( "simcore.events",
      "count/op",
      per_op t.events,
      Printf.sprintf "%d Engine.step calls; %s" t.events base );
    ( "simcore.step_self_us",
      "us/op",
      Span.self_us Span.step /. ops,
      "Engine.step spans minus the benchmark's callback spans" );
    ( "simcore.ns_per_event",
      "ns/event",
      ns_per_event,
      Printf.sprintf "no-op event kernel, %d pending" (int_of_float t.pending_avg) );
    ( "simcore.dispatch_share",
      "frac",
      dispatch_share,
      "ns_per_event x events " ^ of_wall );
    ( "simcore.shard2_speedup",
      "x",
      t.shard2,
      "fabric wall at 1 domain / at 2 domains; 0 = not run" );
    ( "net.crc_mb",
      "MB/op",
      float_of_int t.crc_bytes /. 1e6 /. ops,
      "PDU bytes CRC'd on tx and rx; " ^ base );
    ( "net.crc_ns_per_kb",
      "ns/KB",
      crc_ns_per_kb,
      "Crc32.update kernel at the workload's PDU sizes" );
    ("net.crc_share", "frac", crc_share, "crc_ns_per_kb x bytes CRC'd " ^ of_wall);
    ("net.rx_pdus", "count/op", per_op (c "rx_pdus"), base);
    ("net.tx_stalls", "count/op", per_op (c "tx_stalls"), base);
    ("genie.output_us_per_call", "us/call", out_us, out_n);
    ("genie.input_us_per_call", "us/call", in_us, in_n);
    ("genie.copies_per_op", "count/op", per_op (c "copies"), base);
    ("genie.copied_bytes_per_op", "B/op", per_op (c "copied_bytes"), base);
    ("genie.pool_recycles_per_op", "count/op", per_op (c "pool_recycles"), base);
    ("genie.sem_fallbacks", "count/op", per_op (c "sem_fallbacks"), base);
    ("genie.backpressure_rejects", "count/op", per_op (c "backpressure_rejects"), base);
    ( "genie.flow_table_ns_per_cycle",
      "ns/cycle",
      ft_ns,
      "Flow_table free+alloc kernel, 4 flows live" );
    ( "genie.flow_table_share",
      "frac",
      ft_share,
      Printf.sprintf "x %d cycles %s" t.flow_cycles of_wall );
    ("vm.cow_breaks_per_op", "count/op", per_op (c "cow_breaks"), base);
    ("vm.wires_per_op", "count/op", per_op (c "wires"), base);
    ("memory.frame_allocs_per_op", "count/op", per_op (c "frame_allocs"), base);
    ("memory.frame_frees_per_op", "count/op", per_op (c "frame_frees"), base);
    ("store.read_us_per_call", "us/call", rd_us, rd_n);
    ("store.write_us_per_call", "us/call", wr_us, wr_n);
    ("store.sendfile_us_per_call", "us/call", sf_us, sf_n);
    ("store.fsync_us_per_call", "us/call", fs_us, fs_n);
    kind_share "read";
    kind_share "write";
    kind_share "sendfile";
    kind_share "fsync";
    ( "store.hit_ratio",
      "frac",
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses)),
      Printf.sprintf "%d hits of %d page lookups" hits (hits + misses) );
    ("store.disk_reads_per_op", "count/op", per_op (c "disk_reads"), base);
    ("store.writebacks_per_op", "count/op", per_op (c "writebacks"), base);
    ("store.wb_throttles", "count/op", per_op (c "wb_throttles"), base);
    ( "stats.summary_add_ns",
      "ns",
      sum_ns,
      "Streaming_summary.add kernel at the workload's latency scale" );
    ( "stats.summary_share",
      "frac",
      sum_share,
      Printf.sprintf "x %d adds %s" t.summary_adds of_wall );
    ("gc.minor_words_per_op", "words/op", t.minor_words_per_op, "untraced phase");
    ( "gc.major_collections",
      "count/op",
      per_op t.major_collections,
      Printf.sprintf "%d in the traced phase" t.major_collections );
    ( "gc.pause_share",
      "frac",
      gc_share,
      Printf.sprintf "Runtime_events GC phases %s; %d events lost" of_wall
        !Gc_pause.lost );
    ( "trace.bench_share",
      "frac",
      bench_share,
      "benchmark callbacks and loop " ^ of_wall );
    ( "trace.overhead_frac",
      "frac",
      (wall /. ops /. t.base_ns_per_op) -. 1.,
      "traced ns/op / untraced ns/op - 1" );
    ("trace.unattributed_frac", "frac", 1. -. attributed, "1 - every share above");
  ]

let usage () =
  prerr_endline
    "usage: bench --workload (fabric-bulk|pingpong-small|storage-mix) --seed N \
     --seconds S --trace (0|1) [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_of_string v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || !trace < 0
     || !trace > 1
  then usage ();
  let seed = !seed and seconds = !seconds in
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" !workload seed seconds
    !trace;
  if !trace = 0 then begin
    let r =
      match !workload with
      | "fabric-bulk" -> Fabric_bulk.e2e ~seed ~seconds
      | "pingpong-small" -> closed_e2e Pingpong.workload ~seed ~seconds
      | _ -> closed_e2e Storage.workload ~seed ~seconds
    in
    check_outputs r.mismatches;
    let metrics = e2e_metrics r in
    print_lines metrics;
    let correct = r.mismatches = [] in
    emit ~correct ~attempted:r.attempted ~failed:(r.failed + r.again) metrics;
    if not correct then exit 1
  end
  else begin
    let t, errors =
      match !workload with
      | "fabric-bulk" -> Fabric_bulk.traced ~seed ~seconds
      | "pingpong-small" -> closed_traced Pingpong.workload ~seed ~seconds
      | _ -> closed_traced Storage.workload ~seed ~seconds
    in
    check_outputs errors;
    List.iter (fun n -> Printf.printf "note: %s\n" n) t.t_notes;
    if !out <> "" then begin
      let path = Filename.concat !out (Printf.sprintf "spans-%s.tsv" !workload) in
      Span.write_out path;
      Printf.printf "spans: %d kept, %d aggregated only, written to %s\n" !Span.recorded
        !Span.dropped path
    end;
    let metrics = layer_metrics t in
    print_lines metrics;
    let correct = errors = [] in
    emit ~correct ~attempted:t.t_ops ~failed:(List.length errors) metrics;
    if not correct then exit 1
  end
