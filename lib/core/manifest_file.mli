(** Text format for component manifests, so system architects can
    describe an application and run the analyses without writing OCaml.

    Syntax (line-based, [#] comments):
    {v
    component ui
      domain mailapp          # optional; defaults to the component name
      size 6000               # notional loc; default 1000
      substrate microkernel   # default microkernel
      network-facing          # flags
      vulnerable
      no-badge-checks
      stateful                # accumulates state across requests
      restart on-failure 3 256    # policy [max [window-ticks]];
                                  # never | on-failure | always
      provides show render    # space-separated service names
      place class:tee host:edge-1   # fleet placement selectors
      connects tls.transmit   # one target.service per line
      connects-vetted legacyfs.io   # trusted-wrapper connection

    host edge-1               # fleet host declaration
      substrates microkernel sgx

    domain tenant-a           # trust domain (Tyche-style, nestable)
      domain edge             # sub-domain: path tenant-a/edge
        component proxy
          connects core.rpc
        end                   # closes component proxy
      end                     # pops edge
      component core          # path tenant-a
        provides rpc
      end
    end                       # pops tenant-a
    v}

    A [domain] line between stanzas opens a trust domain; inside a
    component it is still the protection-domain directive. [end] closes
    the open component stanza if any, else pops the innermost trust
    domain. Anything still open at end of file closes implicitly, so
    flat files never need [end].

    Parsing is total: errors come back as [Error] with a line number.
    Duplicate component names and connections from a component to
    itself are rejected at parse time; everything else (dangling
    targets, risky topologies) parses fine and is {!Lint}'s business. *)

(** [parse text] returns the manifests in file order. [host] stanzas
    parse but are dropped; use {!parse_fleet} to keep them. *)
val parse : string -> (Manifest.t list, string) result

(** [load path] reads and parses a file. *)
val load : string -> (Manifest.t list, string) result

(** [parse_fleet text] — manifests plus the declared fleet hosts, both
    in file order. *)
val parse_fleet : string -> (Manifest.t list * Manifest.host list, string) result

(** A parsed manifest plus the 1-based line of its [component]
    directive, so diagnostics can point back into the source file. *)
type span = { sp_manifest : Manifest.t; sp_line : int }

val parse_spanned : string -> (span list, string) result

val parse_fleet_spanned : string -> (span list * Manifest.host list, string) result

val load_fleet_spanned : string -> (span list * Manifest.host list, string) result

(** [to_text manifests] renders back to the file format (round-trips
    through {!parse}). *)
val to_text : Manifest.t list -> string

(** [fleet_to_text (manifests, hosts)] — host stanzas first, then the
    components (round-trips through {!parse_fleet}). *)
val fleet_to_text : Manifest.t list * Manifest.host list -> string
