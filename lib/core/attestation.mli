(** Substrate-independent attestation (§II-D, §III-A).

    Every substrate proves code identity differently — TPM/SGX sign with
    certified keys, TrustZone/SEP show knowledge of a fused symmetric
    key — but a verifier cares about one question: {e is this claim
    bound to an approved measurement by an intact trust anchor?} This
    module gives evidence a single shape and verification a single
    policy, so distributed trust relationships (Figure 3) can span
    substrates. *)

type proof =
  | Rsa_quote of { signature : string; cert : Lt_crypto.Cert.t }
      (** asymmetric: quote signed by a certified attestation key *)
  | Hmac_tag of { device : string; tag : string }
      (** symmetric: MAC under a fused key the verifier shares *)

type evidence = {
  ev_substrate : string;     (** e.g. "sgx", "trustzone" *)
  ev_measurement : string;   (** code identity being attested *)
  ev_nonce : string;         (** verifier's freshness challenge *)
  ev_claim : string;         (** application payload bound to the identity *)
  ev_proof : proof;
}

(** What a verifier is configured to accept. *)
type policy = {
  trusted_cas : (string * Lt_crypto.Rsa.public) list;
      (** CA name -> root key, for [Rsa_quote] certificate chains *)
  shared_device_keys : (string * string) list;
      (** device id -> fused key, for [Hmac_tag] *)
  accepted_measurements : string list;
      (** whitelist of known-good code identities *)
}

type failure =
  | Stale_nonce
  | Unknown_measurement
  | Bad_signature
  | Untrusted_issuer
  | Unknown_device
  | Bad_tag

(** [signed_body e] is the canonical byte string a proof covers. *)
val signed_body : evidence -> string

(** [make_hmac ~substrate ~measurement ~nonce ~claim ~device ~key] MACs
    evidence with a fused device key. *)
val make_hmac :
  substrate:string -> measurement:string -> nonce:string -> claim:string ->
  device:string -> key:string -> evidence

(** [verify policy ~nonce evidence] checks freshness, measurement
    whitelist and the proof against the policy's anchors. *)
val verify : policy -> nonce:string -> evidence -> (unit, failure) result

val pp_failure : Format.formatter -> failure -> unit

(** [to_wire] / [of_wire] — evidence crossing the untrusted network. *)
val to_wire : evidence -> string

val of_wire : string -> evidence option
