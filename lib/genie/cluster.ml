type t = {
  engines : Simcore.Engine.t array;
  pairs : (Host.t * Host.t) array;
}

let create ?(domains = 1) ?(pairs = 2) ?(params = Net.Net_params.oc3)
    ?(spec = Machine.Machine_spec.micron_p166) ?pool_frames () =
  if domains < 1 then invalid_arg "Cluster.create: domains must be >= 1";
  if pairs < 1 then invalid_arg "Cluster.create: pairs must be >= 1";
  let engines =
    Array.init (min domains pairs) (fun _ -> Simcore.Engine.create ())
  in
  let mk_pair i =
    let engine = engines.(i mod Array.length engines) in
    let host side =
      Host.create ?pool_frames engine params spec
        ~name:(Printf.sprintf "p%d-%s" i side)
    in
    let a = host "a" in
    let b = host "b" in
    Net.Adapter.connect a.Host.adapter b.Host.adapter;
    (a, b)
  in
  { engines; pairs = Array.init pairs mk_pair }

let page = 4096

let make_buf host ~len =
  let space = Host.new_space host in
  let region =
    Vm.Address_space.map_region space ~npages:((len + page - 1) / page)
  in
  Buf.make space ~addr:(Vm.Address_space.base_addr region ~page_size:page) ~len

(* Deterministic pipelined workload: on every pair, the sender issues
   [messages] datagrams back to back while the receiver preposts one
   app-buffer input per message.  Message sizes are drawn from a pure
   per-pair [Rng.stream], so the workload is identical for every domain
   count. *)
let drive t ~seed ~messages =
  if messages < 1 then invalid_arg "Cluster.drive: messages must be >= 1";
  let root = Simcore.Rng.create ~seed in
  let logs =
    Array.mapi
      (fun i (a, b) ->
        let rng = Simcore.Rng.stream root ~id:i in
        let ea = Endpoint.create a ~vc:1 ~mode:Net.Adapter.Early_demux in
        let eb = Endpoint.create b ~vc:1 ~mode:Net.Adapter.Early_demux in
        let sizes =
          Array.init messages (fun _ ->
              page * (1 + Simcore.Rng.int rng ~bound:4))
        in
        let log = Buffer.create 256 in
        Array.iteri
          (fun j len ->
            let rbuf = make_buf b ~len in
            match
              Endpoint.input eb ~sem:Semantics.emulated_copy
                ~spec:(Input_path.App_buffer rbuf)
                ~on_complete:(fun r ->
                  let ok =
                    Input_path.ok r
                    && Bytes.equal (Buf.read rbuf)
                         (Buf.expected_pattern ~len ~seed:((i * 7919) + j))
                  in
                  Buffer.add_string log
                    (Printf.sprintf "%d:%d:%b:%.3f;" j len ok (Host.now_us b)))
              with
            | Ok _ -> ()
            | Error `Again -> Buffer.add_string log (Printf.sprintf "%d:again;" j))
          sizes;
        Array.iteri
          (fun j len ->
            let sbuf = make_buf a ~len in
            Buf.fill_pattern sbuf ~seed:((i * 7919) + j);
            ignore
              (Endpoint.output ea ~sem:Semantics.emulated_copy ~buf:sbuf ~seq:j
                 ()))
          sizes;
        log)
      t.pairs
  in
  Simcore.Engine.run_all t.engines;
  let all = Buffer.create 256 in
  Array.iteri
    (fun i log ->
      Buffer.add_string all (Printf.sprintf "p%d=%s|" i (Digest.string (Buffer.contents log) |> Digest.to_hex)))
    logs;
  let t_end =
    Array.fold_left
      (fun acc e -> Simcore.Sim_time.max acc (Simcore.Engine.now e))
      Simcore.Sim_time.zero t.engines
  in
  Buffer.add_string all (Printf.sprintf "t=%d" (Simcore.Sim_time.to_ns t_end));
  Digest.to_hex (Digest.string (Buffer.contents all))
