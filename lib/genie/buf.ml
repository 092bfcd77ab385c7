type t = { space : Vm.Address_space.t; addr : int; len : int }

let make space ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Buf.make";
  { space; addr; len }

let page_offset t = t.addr mod Vm.Address_space.page_size t.space

let pages t =
  let psize = Vm.Address_space.page_size t.space in
  let first = t.addr / psize and last = (t.addr + t.len - 1) / psize in
  if t.len = 0 then 0 else last - first + 1

let read t = Vm.Address_space.read t.space ~addr:t.addr ~len:t.len
let write t data = Vm.Address_space.write t.space ~addr:t.addr data

(* Byte i is (131 i + 89 seed + i / 4096) mod 256.  Inside 4096-byte
   block c, with j = i mod 4096, that is 131 (j + k) mod 256 for
   k = 43 (89 seed + c) mod 256, since 43 = 131^-1 mod 256 and 131 * 4096
   is 0 mod 256.  So each 256-byte run of the block is [period] rotated
   by k: one blit from two back-to-back copies of the period. *)
let period2 = Bytes.init 512 (fun m -> Char.chr ((m * 131) land 0xFF))

let expected_pattern ~len ~seed =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let k = (43 * ((seed * 89) + (!pos / 4096))) land 0xFF in
    let n = min 256 (len - !pos) in
    Bytes.blit period2 k out !pos n;
    pos := !pos + n
  done;
  out

let fill_pattern t ~seed = write t (expected_pattern ~len:t.len ~seed)
