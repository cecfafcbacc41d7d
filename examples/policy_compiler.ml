(* Policy compiler (§4 "language support"): parse a router-configuration
   style policy, compile each promise to a route-flow graph, statically
   check it, and report which promises are verifiable under which access
   control.

     dune exec examples/policy_compiler.exe *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg

let source =
  {|
# A mid-size ISP's promises to three different neighbors.
policy for AS3356 {
  # To the paying customer: full shortest-path transit.
  promise to AS100 = shortest;

  # To the partial-transit partner: prefer the European peers
  # unless the backbone has something strictly shorter.
  promise to AS200 = prefer AS5511 AS6762 unless-shorter AS1299;

  # To the backup peer: merely existence.
  promise to AS300 = export-if-any AS5511 AS6762 AS1299;

  # The upstreams whose routes feed these promises.
  neighbors AS1299 AS5511 AS6762;
}
|}

let () =
  let config =
    match R.Compiler.parse source with
    | Ok c -> c
    | Error e ->
        Format.eprintf "parse error: %a@." R.Compiler.pp_error e;
        exit 1
  in
  Format.printf "Parsed configuration for %a:@." G.Asn.pp config.R.Compiler.owner;
  Format.printf "%s@." (R.Compiler.render config);

  let neighbors = config.R.Compiler.neighbors in
  let compiled = R.Compiler.compile config in
  List.iter
    (fun (beneficiary, promise, rfg) ->
      Format.printf "--- promise to %a: %s@." G.Asn.pp beneficiary
        (R.Promise.describe promise);
      Format.printf "%a" R.Rfg.pp rfg;
      let issues =
        R.Static_check.implements rfg ~promise ~beneficiary ~neighbors
      in
      if issues = [] then Format.printf "static check: OK@."
      else
        List.iter
          (fun i -> Format.printf "static check: %a@." R.Static_check.pp_issue i)
          issues;
      (* Verifiability under the promise's minimal α, and under a broken α
         that hides the operator. *)
      let alpha =
        P.Access_control.for_promise promise ~beneficiary ~neighbors
      in
      let ok =
        R.Static_check.verifiable_under rfg ~promise ~beneficiary ~neighbors
          ~visible:(fun ~viewer v ->
            P.Access_control.permits_vertex alpha ~viewer v)
        = []
      in
      Format.printf "verifiable under minimal alpha: %b@." ok;
      let broken =
        R.Static_check.verifiable_under rfg ~promise ~beneficiary ~neighbors
          ~visible:(fun ~viewer:_ v -> not (String.length v > 2 && String.sub v 0 3 = "op:"))
      in
      Format.printf "verifiable when operators are hidden: %b (issues: %d)@.@."
        (broken = []) (List.length broken))
    compiled
