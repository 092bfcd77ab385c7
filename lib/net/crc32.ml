type t = int32

(* Two kernels over the reflected IEEE 802.3 polynomial: a
   carry-less-multiply fold in C (see [update] for when it runs) and
   slicing-by-8 (Kounavis & Berry, 2005), which takes everything else.
   For slicing-by-8, [tables] holds eight 256-entry tables back to back as
   native ints: entry [k * 256 + n] is byte [n] advanced through [k]
   more zero bytes, so one step folds eight bytes with eight lookups.
   Built on first use; the build is deterministic, so two domains
   racing to build it store equal tables. *)
let build () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let tables = Atomic.make [||]

let get_tables () =
  match Atomic.get tables with
  | [||] ->
    let t = build () in
    Atomic.set tables t;
    t
  | t -> t

(* [k] is 0..7 and every [i] passed here is a byte, 0..255, so the
   unchecked read stays inside the 2048-entry table. *)
let[@inline] tbl (t : int array) k i = Array.unsafe_get t ((k lsl 8) lor i)

let[@inline] word data i = Int32.to_int (Bytes.get_int32_le data i) land 0xFFFFFFFF

(* The carry-less-multiply fold in [crc32_stubs.c]: it advances the
   register over [len] bytes at [off], where [len >= 64] and [len] is a
   multiple of 16.  It is only called when [clmul] holds. *)
external clmul_fold :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "crc32_clmul_fold_byte" "crc32_clmul_fold"
[@@noalloc]

external clmul_available : unit -> bool = "crc32_clmul_available" [@@noalloc]

let clmul = clmul_available ()

let init = 0xFFFFFFFFl

let update crc data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Crc32.update";
  let t = get_tables () in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  (* Kernel choice: the fold takes the 16-byte-multiple prefix of any
     slice of 64 bytes or more when the CPU has CLMUL; slicing-by-8 takes
     the rest, and everything on a CPU without it. *)
  let off, len =
    if clmul && len >= 64 then begin
      let n = len land lnot 15 in
      c := clmul_fold !c data off n;
      (off + n, len - n)
    end
    else (off, len)
  in
  let blocks_end = off + (len land lnot 7) in
  let i = ref off in
  while !i < blocks_end do
    let lo = !c lxor word data !i in
    let hi = word data (!i + 4) in
    c :=
      tbl t 7 (lo land 0xFF)
      lxor tbl t 6 ((lo lsr 8) land 0xFF)
      lxor tbl t 5 ((lo lsr 16) land 0xFF)
      lxor tbl t 4 (lo lsr 24)
      lxor tbl t 3 (hi land 0xFF)
      lxor tbl t 2 ((hi lsr 8) land 0xFF)
      lxor tbl t 1 ((hi lsr 16) land 0xFF)
      lxor tbl t 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = blocks_end to off + len - 1 do
    c := tbl t 0 ((!c lxor Char.code (Bytes.get data j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int !c

let finish crc = Int32.logxor crc 0xFFFFFFFFl
let digest data = finish (update init data ~off:0 ~len:(Bytes.length data))
