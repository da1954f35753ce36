(* Adler-32 (RFC 1950): two sums modulo 65521 packed as [b lsl 16 lor a],
   where [a] is one plus the sum of the bytes and [b] the sum of the
   successive values of [a]. *)

let base = 65521

let update sum s pos len =
  if pos < 0 || len < 0 || pos > Bytes.length s - len then invalid_arg "Adler32.update";
  (* Reduce once per block rather than per byte: 5552 bytes is zlib's
     bound for 32-bit sums, far inside 63-bit ints, and modular
     arithmetic makes the deferred reduction give the same value. *)
  let a = ref (sum land 0xffff) and b = ref (sum lsr 16) and i = ref pos in
  let last = pos + len in
  while !i < last do
    let stop = Stdlib.min last (!i + 5552) in
    for k = !i to stop - 1 do
      a := !a + Char.code (Bytes.unsafe_get s k);
      b := !b + !a
    done;
    a := !a mod base;
    b := !b mod base;
    i := stop
  done;
  (!b lsl 16) lor !a

let empty = 1

let string s = update empty (Bytes.unsafe_of_string s) 0 (String.length s)

(* zlib's adler32_combine.  Appending [len2] bytes with sums [a2], [b2]
   adds [a2 - 1] to [a], and to [b] adds [b2] plus [a1 - 1] for each of
   the appended bytes. *)
let combine sum1 sum2 len2 =
  let a1 = sum1 land 0xffff and b1 = sum1 lsr 16 in
  let a2 = sum2 land 0xffff and b2 = sum2 lsr 16 in
  let a = (a1 + a2 + base - 1) mod base in
  let b = (b1 + b2 + (len2 mod base * (a1 + base - 1))) mod base in
  (b lsl 16) lor a
