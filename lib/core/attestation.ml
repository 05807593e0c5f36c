open Lt_crypto

type proof =
  | Rsa_quote of { signature : string; cert : Cert.t }
  | Hmac_tag of { device : string; tag : string }

type evidence = {
  ev_substrate : string;
  ev_measurement : string;
  ev_nonce : string;
  ev_claim : string;
  ev_proof : proof;
}

type policy = {
  trusted_cas : (string * Rsa.public) list;
  shared_device_keys : (string * string) list;
  accepted_measurements : string list;
}

type failure =
  | Stale_nonce
  | Unknown_measurement
  | Bad_signature
  | Untrusted_issuer
  | Unknown_device
  | Bad_tag

let signed_body e =
  Wire.encode [ "attest"; e.ev_substrate; e.ev_measurement; e.ev_nonce; e.ev_claim ]

let make_hmac ~substrate ~measurement ~nonce ~claim ~device ~key =
  let e =
    { ev_substrate = substrate;
      ev_measurement = measurement;
      ev_nonce = nonce;
      ev_claim = claim;
      ev_proof = Hmac_tag { device; tag = "" } }
  in
  { e with ev_proof = Hmac_tag { device; tag = Hmac.mac ~key (signed_body e) } }

let verify policy ~nonce e =
  if e.ev_nonce <> nonce then Error Stale_nonce
  else if not (List.mem e.ev_measurement policy.accepted_measurements) then
    Error Unknown_measurement
  else
    match e.ev_proof with
    | Rsa_quote { signature; cert } ->
      (match List.assoc_opt cert.Cert.issuer policy.trusted_cas with
       | None -> Error Untrusted_issuer
       | Some ca_pub ->
         if not (Cert.verify ~issuer_pub:ca_pub cert) then Error Untrusted_issuer
         else begin
           (* the signature must cover the body minus the proof itself *)
           let body = signed_body e in
           if Rsa.verify cert.Cert.pubkey ~signature body then Ok ()
           else Error Bad_signature
         end)
    | Hmac_tag { device; tag } ->
      (match List.assoc_opt device policy.shared_device_keys with
       | None -> Error Unknown_device
       | Some key ->
         if Hmac.verify ~key ~tag (signed_body e) then Ok () else Error Bad_tag)

let pp_failure fmt = function
  | Stale_nonce -> Format.pp_print_string fmt "nonce mismatch (replay?)"
  | Unknown_measurement -> Format.pp_print_string fmt "measurement not whitelisted"
  | Bad_signature -> Format.pp_print_string fmt "signature/nonce check failed"
  | Untrusted_issuer -> Format.pp_print_string fmt "certificate issuer not trusted"
  | Unknown_device -> Format.pp_print_string fmt "unknown device id"
  | Bad_tag -> Format.pp_print_string fmt "mac verification failed"

let to_wire e =
  let proof_fields =
    match e.ev_proof with
    | Rsa_quote { signature; cert } -> [ "rsa"; signature; Cert.to_string cert ]
    | Hmac_tag { device; tag } -> [ "hmac"; device; tag ]
  in
  Wire.encode
    ([ e.ev_substrate; e.ev_measurement; e.ev_nonce; e.ev_claim ] @ proof_fields)

let of_wire s =
  match Wire.decode s with
  | Some [ sub; m; nonce; claim; "rsa"; signature; cert_s ] ->
    (match Cert.of_string cert_s with
     | None -> None
     | Some cert ->
       Some
         { ev_substrate = sub;
           ev_measurement = m;
           ev_nonce = nonce;
           ev_claim = claim;
           ev_proof = Rsa_quote { signature; cert } })
  | Some [ sub; m; nonce; claim; "hmac"; device; tag ] ->
    Some
      { ev_substrate = sub;
        ev_measurement = m;
        ev_nonce = nonce;
        ev_claim = claim;
        ev_proof = Hmac_tag { device; tag } }
  | _ -> None
