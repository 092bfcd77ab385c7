type t = {
  engine : Simcore.Engine.t;
  a : Host.t;
  b : Host.t;
}

let create ?(params = Net.Net_params.oc3)
    ?(spec_a = Machine.Machine_spec.micron_p166)
    ?(spec_b = Machine.Machine_spec.micron_p166) ?thresholds ?pool_frames ?trace
    () =
  let engine = Simcore.Engine.create () in
  let a =
    Host.create ?pool_frames ?thresholds ?tracer:trace engine params spec_a
      ~name:"host-a"
  in
  let b =
    Host.create ?pool_frames ?thresholds ?tracer:trace engine params spec_b
      ~name:"host-b"
  in
  Net.Adapter.connect a.Host.adapter b.Host.adapter;
  { engine; a; b }

let hosts t = [ t.a; t.b ]
let run t = Simcore.Engine.run t.engine

let run_for t duration =
  Simcore.Engine.run_until t.engine
    (Simcore.Sim_time.add (Simcore.Engine.now t.engine) duration)

let endpoint_pair t ~vc ~mode =
  (Endpoint.create t.a ~vc ~mode, Endpoint.create t.b ~vc ~mode)
