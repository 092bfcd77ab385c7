(* Sequential discrete-event engine: one wheel, one clock.  [run_all]
   runs independent engines side by side on OCaml domains. *)

type t = {
  queue : (unit -> unit) Wheel.t;
  mutable clock : Sim_time.t;
}

let create () =
  { queue = Wheel.create ~dummy:(fun () -> ()) (); clock = Sim_time.zero }

let now t = t.clock

let at t ~time f =
  let key = Sim_time.to_ns time in
  if key < Sim_time.to_ns t.clock then
    invalid_arg "Engine.at: scheduling in the simulated past";
  Wheel.push t.queue ~key f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(Sim_time.add t.clock delay) f

let step t =
  match Wheel.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- Sim_time.of_ns time;
    f ();
    true

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Wheel.peek_key t.queue with
    | Some key when key <= Sim_time.to_ns limit -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  if Sim_time.compare t.clock limit < 0 then t.clock <- limit

let pending t = Wheel.length t.queue

let run_all engines =
  let outcome f = match f () with () -> None | exception e -> Some e in
  let spawned = ref [] in
  (* A failed spawn still lets the spawned domains finish and be joined. *)
  let first =
    outcome (fun () ->
        for i = Array.length engines - 1 downto 1 do
          spawned := Domain.spawn (fun () -> run engines.(i)) :: !spawned
        done;
        if Array.length engines > 0 then run engines.(0))
  in
  let rest = List.map (fun d -> outcome (fun () -> Domain.join d)) !spawned in
  Option.iter raise (List.find_map Fun.id (first :: rest))
