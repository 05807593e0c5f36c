(** Copy-on-write byte store for the big flat arrays of the simulated
    world: DRAM frames, EPC pages, CHERI compartment memory, FS block
    devices.

    Backed by 4 KiB chunks with per-chunk owner generations.
    {!snapshot} copies only the chunk-pointer array — O(chunks), no
    byte copying — and {!restore} blits it back, so forking a booted
    world costs microseconds and writes pay a one-time chunk copy per
    generation (O(dirty) total). *)

type t
type snap

val chunk_size : int

(** [create ~len] — a zero-filled store of [len] bytes. *)
val create : len:int -> t

val length : t -> int
val get : t -> int -> char
val set : t -> int -> char -> unit
val sub_string : t -> pos:int -> len:int -> string
val blit_string : string -> t -> pos:int -> unit
val fill : t -> pos:int -> len:int -> char -> unit

(** [snapshot t] shares all chunks between [t] and the snap; the next
    write on either side copies the touched chunk first.  A snap can be
    restored any number of times. *)
val snapshot : t -> snap

(** [restore t s] — [s] must come from [t] (same geometry). *)
val restore : t -> snap -> unit

val digest : t -> Digest64.t
