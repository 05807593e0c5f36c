(* The paper's email client (§III-C), horizontally decomposed and running
   end to end:
   - TLS component: the only one talking to the network, over a real
     handshake on a hostile simulated network;
   - storage component: VPFS wrapper over the untrusted legacy FS;
   - renderer: network-facing, assumed exploitable — we exploit it and
     watch the containment;
   - secure GUI: the trusted indicator defeats a phishing window.

   Run with: dune exec examples/email_client.exe *)

open Lt_crypto
module Net = Lt_net.Net
module Sc = Lt_net.Secure_channel
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs
open Lateral

let section title =
  Printf.printf "\n=== %s ===\n" title

let scenario_ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("email client: " ^ e);
    exit 1

let () =
  let rng = Drbg.create 7L in

  (* ---------------------------------------------------------------- *)
  section "1. Architecture: vertical vs horizontal (Figure 1)";
  let table = scenario_ok (Scenario_mail.containment_table ()) in
  Printf.printf "%-12s %-22s %-22s\n" "exploited" "vertical: owned" "horizontal: owned";
  List.iter
    (fun (name, v, h) ->
      Printf.printf "%-12s %-22s %-22s\n" name
        (Printf.sprintf "%.0f%% of app" (100. *. v))
        (Printf.sprintf "%.0f%% of app" (100. *. h)))
    table;

  (* ---------------------------------------------------------------- *)
  section "2. TLS component: mail fetch over a hostile network";
  let ca = Rsa.generate ~bits:512 rng in
  let server_key = Rsa.generate ~bits:512 rng in
  let cert =
    Cert.issue ~ca_name:"mail-ca" ~ca_key:ca ~subject:"imap.example.org"
      server_key.Rsa.pub
  in
  let net = Net.create () in
  List.iter
    (fun a -> match Net.register net a with Ok () | Error `Duplicate_addr -> ())
    [ "client"; "server" ];
  let client =
    Sc.Client.create rng ~trusted_ca:ca.Rsa.pub ~expected_subject:"imap.example.org" ()
  in
  let server = Sc.Server.create rng ~key:server_key ~cert in
  (match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
   | Error e -> Printf.printf "handshake failed: %s\n" e
   | Ok (cs, ss) ->
     Printf.printf "TLS established (server pinned to imap.example.org)\n";
     (* fetch the inbox through the encrypted channel *)
     let req = Sc.send cs "FETCH INBOX" in
     (match Sc.receive ss req with
      | Ok "FETCH INBOX" ->
        let reply = Sc.send ss "1: From mallory: <html>click here</html>" in
        (match Sc.receive cs reply with
         | Ok mail -> Printf.printf "fetched: %s\n" mail
         | Error e -> Printf.printf "client: %s\n" e)
      | Ok _ | Error _ -> print_endline "server: unexpected request");
     let eavesdropper_sees_plaintext =
       List.exists
         (fun p ->
           let hay = p.Net.payload in
           let needle = "mallory" in
           let n = String.length needle and h = String.length hay in
           let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
           go 0)
         (Net.observed net)
     in
     Printf.printf "eavesdropper saw mail content: %b\n" eavesdropper_sees_plaintext);

  (* ---------------------------------------------------------------- *)
  section "3. Storage component: VPFS over the untrusted legacy FS";
  let dev = Block.create ~blocks:1024 in
  let fs = Fs.format dev in
  let vpfs = Vpfs.create ~master_key:"mail-storage-key" fs in
  (match Vpfs.write vpfs "/inbox/1" "From mallory: click here" with
   | Ok () -> ()
   | Error e -> Printf.printf "write: %s\n" (Format.asprintf "%a" Vpfs.pp_error e));
  Printf.printf "stored mail; legacy fs saw plaintext: %b\n"
    (Fs.observed_contains fs ~needle:"mallory");
  (* the legacy stack turns hostile *)
  Fs.set_evil fs (Fs.Corrupt_reads (Drbg.create 5L));
  (match Vpfs.read vpfs "/inbox/1" with
   | Ok _ -> print_endline "UNEXPECTED: corrupted data accepted"
   | Error e ->
     Printf.printf "hostile fs detected: %s\n" (Format.asprintf "%a" Vpfs.pp_error e));
  Fs.set_evil fs Fs.Honest;

  (* ---------------------------------------------------------------- *)
  section "4. Exploit the renderer, watch the walls hold";
  let app = scenario_ok (Scenario_mail.build ~vertical:false) in
  App.compromise app "renderer";
  (* the ui asks the (now hostile) renderer to render a message *)
  ignore (App.call app ~caller:(Some "ui") ~target:"renderer" ~service:"render"
            "<html>exploit</html>");
  let attempts = App.exfiltration_attempts app "renderer" in
  let allowed = List.filter (fun (_, _, ok) -> ok) attempts in
  Printf.printf "compromised renderer tried %d channels; %d allowed\n"
    (List.length attempts) (List.length allowed);
  List.iter
    (fun (t, s, _) -> Printf.printf "  blocked: renderer -> %s.%s\n" t s)
    (List.filteri (fun i _ -> i < 5) (List.filter (fun (_, _, ok) -> not ok) attempts));
  Printf.printf "  ... and %d more, all blocked by manifests\n"
    (max 0 (List.length attempts - List.length allowed - 5));

  (* ---------------------------------------------------------------- *)
  section "5. Secure GUI: phishing vs the trusted indicator";
  let gui = Gui.create () in
  Gui.register_owner gui ~owner:"mail" ~light:Gui.Green;
  Gui.register_owner gui ~owner:"html-renderer" ~light:Gui.Red;
  Gui.open_window gui ~owner:"mail" ~title:"Inbox";
  Gui.open_window gui ~owner:"html-renderer" ~title:"Message";
  (* the compromised renderer draws a fake login prompt *)
  Gui.set_content gui ~owner:"html-renderer"
    [ "[GREEN] you are talking to: mail"; "Session expired. Re-enter password:" ];
  Gui.focus gui ~owner:"html-renderer";
  List.iter print_endline (Gui.render gui);
  print_endline "(the first line is compositor-rendered and cannot be forged)";

  (* ---------------------------------------------------------------- *)
  section "6. Live deployment: the slice running across real substrates";
  let rng2 = Drbg.create 1234L in
  let ca2 = Rsa.generate ~bits:512 rng2 in
  let mk_machine = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make mk_machine (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let sgx_machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make sgx_machine rng2 ~ca_name:"intel" ~ca_key:ca2 () in
  let sep_machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make sep_machine rng2 ~device_id:"sep" ~private_pages:4 in
  let components =
    [ ( Manifest.v ~name:"mail-ui" ~provides:[ "fetch" ] ~network_facing:true
          ~connects_to:[ Manifest.conn "mail-tls" "transmit" ]
          ~substrate:"microkernel" (),
        fun ctx ~service:_ req ->
          match ctx.Deploy.call_out_typed ~target:"mail-tls" ~service:"transmit" req with
          | Ok r -> "inbox<- " ^ r
          | Error e -> "ui error: " ^ App.render_call_error e );
      ( Manifest.v ~name:"mail-tls" ~provides:[ "transmit" ]
          ~connects_to:[ Manifest.conn "mail-keystore" "sign" ]
          ~substrate:"sgx" (),
        fun ctx ~service:_ req ->
          match ctx.Deploy.call_out_typed ~target:"mail-keystore" ~service:"sign" req with
          | Ok s -> Printf.sprintf "%s [authenticated %s]" req s
          | Error e -> "tls error: " ^ App.render_call_error e );
      ( Manifest.v ~name:"mail-keystore" ~provides:[ "sign" ] ~substrate:"sep" (),
        fun ctx ~service:_ req ->
          let key =
            match ctx.Deploy.facilities.Substrate.f_load ~key:"k" with
            | Some k -> k
            | None ->
              ctx.Deploy.facilities.Substrate.f_store ~key:"k" "account-key";
              "account-key"
          in
          String.sub (Sha256.hex (Hmac.mac ~key req)) 0 8 ) ]
  in
  (match
     Deploy.deploy
       ~substrates:[ ("microkernel", mk); ("sgx", sgx); ("sep", sep) ]
       components
   with
   | Error e -> Printf.printf "deploy failed: %s\n" e
   | Ok d ->
     List.iter
       (fun name ->
         Printf.printf "  %-14s runs on %s\n" name
           (Option.value ~default:"?" (Deploy.substrate_of d name)))
       [ "mail-ui"; "mail-tls"; "mail-keystore" ];
     (match Deploy.call d ~caller:None ~target:"mail-ui" ~service:"fetch" "FETCH 1" with
      | Ok r -> Printf.printf "  call chain result: %s\n" r
      | Error e -> Printf.printf "  error: %s\n" e);
     (* external input cannot reach the keystore directly *)
     (match
        Deploy.call d ~caller:None ~target:"mail-keystore" ~service:"sign" "evil"
      with
      | Error _ -> print_endline "  direct external access to the keystore: BLOCKED"
      | Ok _ -> print_endline "  UNEXPECTED: keystore reachable"));

  (* ---------------------------------------------------------------- *)
  section "7. Per-component TCB (why the keystore is verifiable)";
  List.iter
    (fun (name, mono, dec) ->
      Printf.printf "%-12s monolithic %6d loc   decomposed %6d loc   (%.1fx)\n" name
        mono dec
        (float_of_int mono /. float_of_int (max dec 1)))
    (scenario_ok (Scenario_mail.tcb_comparison ()));
  print_endline "\nemail client demo done."
