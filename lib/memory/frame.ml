type state = Free | Allocated | Zombie

type t = {
  id : int;
  mutable data : bytes;
  mutable input_refs : int;
  mutable output_refs : int;
  mutable wired : int;
  mutable state : state;
  mutable pageable : bool;
  mutable known_zero : bool;
}

let io_referenced t = t.input_refs > 0 || t.output_refs > 0
let page_size t = Bytes.length t.data

(* The one point where a frame stops sharing its memory's zero page:
   every write reaches the bytes through here. *)
let writable t =
  if t.known_zero then begin
    t.data <- Bytes.make (Bytes.length t.data) '\x00';
    t.known_zero <- false
  end;
  t.data

let fill t c =
  if not (t.known_zero && c = '\x00') then
    Bytes.fill (writable t) 0 (Bytes.length t.data) c

let blit_in t ~dst_off ~src ~src_off ~len =
  Bytes.blit src src_off (writable t) dst_off len

let blit_out t ~src_off ~dst ~dst_off ~len =
  Bytes.blit t.data src_off dst dst_off len

let copy_contents ~src ~dst =
  if src.known_zero then fill dst '\x00'
  else Bytes.blit src.data 0 (writable dst) 0 (Bytes.length src.data)

let state_name = function Free -> "free" | Allocated -> "alloc" | Zombie -> "zombie"

let pp fmt t =
  Format.fprintf fmt "frame#%d[%s in=%d out=%d wired=%d]" t.id
    (state_name t.state) t.input_refs t.output_refs t.wired
