(** Adler-32 checksums (RFC 1950), the sum that closes WAL frames and
    snapshot files. *)

val empty : int
(** The sum of no bytes, [1]. *)

val string : string -> int

val update : int -> bytes -> int -> int -> int
(** [update sum s pos len] extends [sum] over [len] bytes of [s] from
    [pos]: [update (string x) s pos len] is the sum of [x] followed by
    those bytes.
    @raise Invalid_argument if the range is not within [s]. *)

val combine : int -> int -> int -> int
(** [combine sum1 sum2 len2] is the sum of a text [x1 ^ x2] from the sums
    of [x1] and [x2] and the length of [x2], in constant time (zlib's
    [adler32_combine]). *)
