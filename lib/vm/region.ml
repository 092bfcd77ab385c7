type movability =
  | Unmovable
  | Moved_in
  | Moving_in
  | Moving_out
  | Moved_out
  | Weakly_moved_out

type t = {
  id : int;
  start_vpn : int;
  npages : int;
  mutable state : movability;
  mutable obj : Memory_object.t;
  mutable wired : int;
  mutable wire_log : (int * int * Memory.Frame.t list) list;
  mutable valid : bool;
}

(* Minted atomically, like [Memory_object] ids. *)
let counter = Atomic.make 1

let make ~start_vpn ~npages ~state ~obj =
  {
    id = Atomic.fetch_and_add counter 1;
    start_vpn;
    npages;
    state;
    obj;
    wired = 0;
    wire_log = [];
    valid = true;
  }

let contains_vpn t vpn = vpn >= t.start_vpn && vpn < t.start_vpn + t.npages
let end_vpn t = t.start_vpn + t.npages

let movability_name = function
  | Unmovable -> "unmovable"
  | Moved_in -> "moved-in"
  | Moving_in -> "moving-in"
  | Moving_out -> "moving-out"
  | Moved_out -> "moved-out"
  | Weakly_moved_out -> "weakly-moved-out"

let pp fmt t =
  Format.fprintf fmt "region#%d[vpn %d..%d %s%s]" t.id t.start_vpn
    (end_vpn t - 1) (movability_name t.state)
    (if t.valid then "" else " removed")
