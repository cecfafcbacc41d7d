module Bgp = Pvr_bgp

type issue =
  | Missing_vertex of Rfg.vertex_id
  | Invisible_vertex of Rfg.vertex_id
  | Wrong_operator of { vertex : Rfg.vertex_id; expected : string; found : string }
  | Wrong_wiring of { vertex : Rfg.vertex_id; detail : string }
  | No_output of Bgp.Asn.t

let pp_issue ppf = function
  | Missing_vertex v -> Format.fprintf ppf "missing vertex %s" v
  | Invisible_vertex v -> Format.fprintf ppf "vertex %s not visible" v
  | Wrong_operator { vertex; expected; found } ->
      Format.fprintf ppf "vertex %s: expected operator %s, found %s" vertex
        expected found
  | Wrong_wiring { vertex; detail } ->
      Format.fprintf ppf "vertex %s: %s" vertex detail
  | No_output asn -> Format.fprintf ppf "no output variable for %a" Bgp.Asn.pp asn

let same_set a b =
  List.sort String.compare a = List.sort String.compare b

(* Walk backward from the beneficiary's output variable and compare the
   producing structure with what the promise requires. *)
let implements g ~promise ~beneficiary ~neighbors =
  let out = Promise.output_var beneficiary in
  match Rfg.kind_of_var g out with
  | None | Some (Rfg.Input _) | Some Rfg.Internal -> [ No_output beneficiary ]
  | Some (Rfg.Output _) -> begin
      match Rfg.producer_of_var g out with
      | None ->
          [ Wrong_wiring { vertex = out; detail = "output has no producer" } ]
      | Some op_id -> begin
          let found_op = Option.get (Rfg.operator_of g op_id) in
          let found = Operator.name found_op in
          let inputs = Rfg.inputs_of_op g op_id in
          let expect_op expected ~wanted_inputs =
            let issues = ref [] in
            if found <> expected then
              issues :=
                Wrong_operator { vertex = op_id; expected; found } :: !issues;
            if not (same_set inputs wanted_inputs) then
              issues :=
                Wrong_wiring
                  {
                    vertex = op_id;
                    detail =
                      "inputs {" ^ String.concat ", " inputs
                      ^ "} do not match required {"
                      ^ String.concat ", " wanted_inputs
                      ^ "}";
                  }
                :: !issues;
            List.iter
              (fun v ->
                if Rfg.kind_of_var g v = None then
                  issues := Missing_vertex v :: !issues)
              wanted_inputs;
            List.rev !issues
          in
          match promise with
          | Promise.Shortest_route ->
              expect_op "min"
                ~wanted_inputs:(List.map Promise.input_var neighbors)
          | Promise.Shortest_from subset ->
              expect_op "min" ~wanted_inputs:(List.map Promise.input_var subset)
          | Promise.Within_hops n ->
              ignore n;
              expect_op "within-hops-of-min"
                ~wanted_inputs:(List.map Promise.input_var neighbors)
          | Promise.No_longer_than_others ->
              expect_op "min"
                ~wanted_inputs:(List.map Promise.input_var neighbors)
          | Promise.Export_if_any subset ->
              expect_op "exists"
                ~wanted_inputs:(List.map Promise.input_var subset)
          | Promise.Prefer_unless_shorter { fallback; override } -> begin
              (* Expect Shorter_of(override, m) where m is produced by a min
                 over the fallback inputs. *)
              let issues = ref [] in
              if found <> "shorter-of" then
                issues :=
                  Wrong_operator { vertex = op_id; expected = "shorter-of"; found }
                  :: !issues;
              (match inputs with
              | [ first; second ] -> begin
                  if first <> Promise.input_var override then
                    issues :=
                      Wrong_wiring
                        {
                          vertex = op_id;
                          detail = "first input is not the override neighbor";
                        }
                      :: !issues;
                  match Rfg.producer_of_var g second with
                  | None ->
                      issues :=
                        Wrong_wiring
                          {
                            vertex = op_id;
                            detail = "second input has no producing operator";
                          }
                        :: !issues
                  | Some inner_id ->
                      let inner = Option.get (Rfg.operator_of g inner_id) in
                      if inner <> Operator.Min_path_length then
                        issues :=
                          Wrong_operator
                            {
                              vertex = inner_id;
                              expected = "min";
                              found = Operator.name inner;
                            }
                          :: !issues;
                      let wanted = List.map Promise.input_var fallback in
                      if not (same_set (Rfg.inputs_of_op g inner_id) wanted)
                      then
                        issues :=
                          Wrong_wiring
                            {
                              vertex = inner_id;
                              detail = "min is not over the fallback subset";
                            }
                          :: !issues
                end
              | _ ->
                  issues :=
                    Wrong_wiring
                      { vertex = op_id; detail = "shorter-of needs two inputs" }
                    :: !issues);
              List.rev !issues
            end
        end
    end

(* Who must see which vertex at protocol run time (§3.2/§3.3): every input
   neighbor and the beneficiary check the top operator; each neighbor sees
   its own input variable; the beneficiary sees the output. *)
let verifiable_under g ~promise ~beneficiary ~neighbors ~visible =
  let structural = implements g ~promise ~beneficiary ~neighbors in
  if structural <> [] then structural
  else begin
    let out = Promise.output_var beneficiary in
    let op_id = Option.get (Rfg.producer_of_var g out) in
    let issues = ref [] in
    let need viewer vertex =
      if not (visible ~viewer vertex) then
        issues := Invisible_vertex vertex :: !issues
    in
    need beneficiary out;
    need beneficiary op_id;
    let involved =
      match promise with
      | Promise.Shortest_from subset | Promise.Export_if_any subset -> subset
      | Promise.Prefer_unless_shorter { fallback; override } ->
          override :: fallback
      | _ -> neighbors
    in
    List.iter
      (fun n ->
        need n op_id;
        need n (Promise.input_var n))
      involved;
    List.rev !issues
  end
