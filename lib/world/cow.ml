(* Copy-on-write byte store.  The backing store is an array of fixed
   size chunks plus a per-chunk owner generation.  A snapshot is a copy
   of the chunk-pointer array (O(chunks), pointer-sized entries, no
   byte copying) and a generation bump; a write copies its chunk only
   the first time the current generation touches it.  Snapshotting a
   booted world is therefore O(dirty), not O(world), which is what
   makes World.fork microseconds instead of milliseconds. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits (* 4 KiB, one simulated page *)

type t = {
  length : int;
  chunks : Bytes.t array;
  owner : int array; (* generation that owns (may mutate) chunk i *)
  mutable gen : int;
}

type snap = Bytes.t array

let chunk_count len = (len + chunk_size - 1) / chunk_size

let create ~len =
  if len < 0 then invalid_arg "Cow.create: negative length";
  let n = chunk_count len in
  let chunks =
    Array.init n (fun i ->
        Bytes.make (min chunk_size (len - (i * chunk_size))) '\000')
  in
  { length = len; chunks; owner = Array.make n 0; gen = 0 }

let length t = t.length

(* make chunk [i] private to the current generation before mutating it *)
let ensure_owned t i =
  if t.owner.(i) <> t.gen then begin
    t.chunks.(i) <- Bytes.copy t.chunks.(i);
    t.owner.(i) <- t.gen
  end

let check_range t pos len name =
  if pos < 0 || len < 0 || pos + len > t.length then invalid_arg name

let get t pos =
  check_range t pos 1 "Cow.get";
  Bytes.get t.chunks.(pos lsr chunk_bits) (pos land (chunk_size - 1))

let set t pos c =
  check_range t pos 1 "Cow.set";
  let i = pos lsr chunk_bits in
  ensure_owned t i;
  Bytes.set t.chunks.(i) (pos land (chunk_size - 1)) c

(* iterate [f chunk_index off_in_chunk len_in_chunk pos_in_op] over the
   chunks a [pos, len) range spans *)
let iter_chunks t ~pos ~len f =
  let p = ref pos and done_ = ref 0 in
  while !done_ < len do
    let i = !p lsr chunk_bits in
    let off = !p land (chunk_size - 1) in
    let n = min (Bytes.length t.chunks.(i) - off) (len - !done_) in
    f i off n !done_;
    p := !p + n;
    done_ := !done_ + n
  done

let sub_string t ~pos ~len =
  check_range t pos len "Cow.sub_string";
  let out = Bytes.create len in
  iter_chunks t ~pos ~len (fun i off n at ->
      Bytes.blit t.chunks.(i) off out at n);
  Bytes.unsafe_to_string out

let blit_string src t ~pos =
  let len = String.length src in
  check_range t pos len "Cow.blit_string";
  iter_chunks t ~pos ~len (fun i off n at ->
      ensure_owned t i;
      Bytes.blit_string src at t.chunks.(i) off n)

let fill t ~pos ~len c =
  check_range t pos len "Cow.fill";
  iter_chunks t ~pos ~len (fun i off n _ ->
      ensure_owned t i;
      Bytes.fill t.chunks.(i) off n c)

let snapshot t =
  let s = Array.copy t.chunks in
  (* both the live store and the snap now share every chunk: neither
     owns them, so the next write from either side copies first *)
  t.gen <- t.gen + 1;
  s

let restore t s =
  if Array.length s <> Array.length t.chunks then
    invalid_arg "Cow.restore: snapshot from a different store";
  Array.blit s 0 t.chunks 0 (Array.length s);
  (* the snap stays valid for re-restore: chunks are shared again *)
  t.gen <- t.gen + 1

let digest t =
  Array.fold_left Digest64.bytes (Digest64.int Digest64.basis t.length) t.chunks
