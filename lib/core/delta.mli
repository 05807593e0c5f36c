(** Fleet mutations for the incremental {!Check} engine.

    A delta is one control-plane operation on a manifest fleet: admit
    or update a component, evict one, or rewire a single channel. The
    {!Check} engine re-proves the lint + flow verdict after each delta
    without re-analysing the whole fleet; this module is the delta
    vocabulary plus a line-based script format so churn scenarios can
    be replayed from a file (and shrunk by the fuzzer).

    {!apply} is pure and {e total}: a delta whose subject does not
    exist is a no-op, never an error — the control plane must survive
    racing operators, and the linter reports whatever inconsistency the
    surviving fleet has. *)

type t =
  | Add of Manifest.t
      (** upsert: replaces the first manifest with the same name (and
          drops any other duplicates), appends otherwise *)
  | Remove of string  (** evict every manifest with this name *)
  | Connect of { caller : string; conn : Manifest.connection }
      (** upsert one channel on [caller]: an existing channel to the
          same [target.service] is replaced, otherwise the channel is
          appended *)
  | Disconnect of { caller : string; target : string; service : string }
  | Set_vetted of {
      caller : string;
      target : string;
      service : string;
      vetted : bool;
    }  (** toggle the trusted-wrapper flag on one existing channel *)

(** [apply d manifests] — pure, total, order-preserving. *)
val apply : t -> Manifest.t list -> Manifest.t list

(** One human line per delta, for per-step CLI verdicts. *)
val describe : t -> string

(** {2 Script format}

    Line-based, [#] comments, blank lines ignored:
    {v
    add                      # followed by manifest blocks
    component cache
      provides get
      connects store.io

    remove cache
    connect ui store.io      # CALLER TARGET.SERVICE
    connect-vetted ui legacyfs.io
    disconnect ui store.io
    vet ui store.io
    unvet ui store.io
    v}

    [add] (alias [update] — same upsert semantics) is followed by one
    or more manifest blocks in the {!Manifest_file} format; the block
    runs until the next delta keyword. Self-connections are rejected at
    parse time, mirroring the manifest file parser. *)

(** A parse failure with its position. [pe_line] is 1-based in the
    script file — errors inside an [add]/[update] manifest block are
    rebased onto the script's own numbering, not the block's. The one
    line-less case is an I/O failure from {!load_script_located}, which
    carries [pe_line = 0]. *)
type parse_error = { pe_line : int; pe_msg : string }

(** [parse_script_located text] returns deltas in file order, or the
    first error with its line. Total: never raises. *)
val parse_script_located : string -> (t list, parse_error) result

(** {!parse_script_located} with the error flattened to
    ["line %d: msg"] — for callers that only want a string. *)
val parse_script : string -> (t list, string) result

val load_script_located : string -> (t list, parse_error) result

(** Renders back to the script format; round-trips through
    {!parse_script}. *)
val to_text : t list -> string
