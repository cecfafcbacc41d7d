module Bgp = Pvr_bgp
module SMap = Map.Make (String)

type vertex_id = string

type vertex_kind = Input of Bgp.Asn.t | Internal | Output of Bgp.Asn.t

type node_body = Prim of Operator.t | Composite of t

and op_node = { body : node_body; op_inputs : vertex_id list; op_output : vertex_id }

and t = {
  vars : vertex_kind SMap.t;
  ops : op_node SMap.t;
  producers : vertex_id SMap.t; (* var -> op computing it *)
}

let empty = { vars = SMap.empty; ops = SMap.empty; producers = SMap.empty }

let mem_vertex t id = SMap.mem id t.vars || SMap.mem id t.ops

let add_var t id kind =
  if mem_vertex t id then invalid_arg ("Rfg.add_var: duplicate id " ^ id);
  { t with vars = SMap.add id kind t.vars }

let add_op t id op ~inputs ~output =
  if mem_vertex t id then invalid_arg ("Rfg.add_op: duplicate id " ^ id);
  List.iter
    (fun v ->
      if not (SMap.mem v t.vars) then
        invalid_arg ("Rfg.add_op: unknown input variable " ^ v))
    inputs;
  if not (SMap.mem output t.vars) then
    invalid_arg ("Rfg.add_op: unknown output variable " ^ output);
  if SMap.mem output t.producers then
    invalid_arg ("Rfg.add_op: variable " ^ output ^ " already has a producer");
  (match Operator.arity op with
  | Some n when List.length inputs <> n ->
      invalid_arg "Rfg.add_op: operator arity mismatch"
  | _ -> ());
  {
    t with
    ops = SMap.add id { body = Prim op; op_inputs = inputs; op_output = output } t.ops;
    producers = SMap.add output id t.producers;
  }

let add_composite t id ~inner ~inputs ~output =
  if mem_vertex t id then invalid_arg ("Rfg.add_composite: duplicate id " ^ id);
  List.iter
    (fun v ->
      if not (SMap.mem v t.vars) then
        invalid_arg ("Rfg.add_composite: unknown input variable " ^ v))
    inputs;
  if not (SMap.mem output t.vars) then
    invalid_arg ("Rfg.add_composite: unknown output variable " ^ output);
  if SMap.mem output t.producers then
    invalid_arg
      ("Rfg.add_composite: variable " ^ output ^ " already has a producer");
  let inner_inputs =
    SMap.fold
      (fun vid kind acc ->
        match kind with Input _ -> vid :: acc | Internal | Output _ -> acc)
      inner.vars []
  in
  if List.length inner_inputs <> List.length inputs then
    invalid_arg "Rfg.add_composite: inner input arity mismatch";
  let inner_outputs =
    SMap.fold
      (fun vid kind acc ->
        match kind with Output _ -> vid :: acc | Input _ | Internal -> acc)
      inner.vars []
  in
  if List.length inner_outputs <> 1 then
    invalid_arg "Rfg.add_composite: inner graph needs exactly one output";
  {
    t with
    ops =
      SMap.add id
        { body = Composite inner; op_inputs = inputs; op_output = output }
        t.ops;
    producers = SMap.add output id t.producers;
  }

let var_ids t = List.map fst (SMap.bindings t.vars)
let op_ids t = List.map fst (SMap.bindings t.ops)
let vertex_ids t = var_ids t @ op_ids t

let kind_of_var t id = SMap.find_opt id t.vars

let operator_of t id =
  match SMap.find_opt id t.ops with
  | Some { body = Prim op; _ } -> Some op
  | Some { body = Composite _; _ } | None -> None

let composite_of t id =
  match SMap.find_opt id t.ops with
  | Some { body = Composite inner; _ } -> Some inner
  | Some { body = Prim _; _ } | None -> None

let is_operator_vertex t id = SMap.mem id t.ops

let inputs_of_op t id =
  match SMap.find_opt id t.ops with Some n -> n.op_inputs | None -> []

let producer_of_var t id = SMap.find_opt id t.producers

let consumers_of_var t id =
  SMap.fold
    (fun op_id n acc -> if List.mem id n.op_inputs then op_id :: acc else acc)
    t.ops []
  |> List.rev

let predecessors t id =
  match SMap.find_opt id t.ops with
  | Some n -> n.op_inputs
  | None -> ( match producer_of_var t id with Some op -> [ op ] | None -> [])

let successors t id =
  match SMap.find_opt id t.ops with
  | Some n -> [ n.op_output ]
  | None -> consumers_of_var t id

let input_vars t =
  SMap.fold
    (fun id kind acc ->
      match kind with Input asn -> (id, asn) :: acc | _ -> acc)
    t.vars []
  |> List.rev

let output_vars t =
  SMap.fold
    (fun id kind acc ->
      match kind with Output asn -> (id, asn) :: acc | _ -> acc)
    t.vars []
  |> List.rev

(* Kahn's algorithm over operator nodes: an operator is ready when every
   input variable is either producer-less or its producer already ran. *)
let topological_ops t =
  let ready op_done id =
    let n = SMap.find id t.ops in
    List.for_all
      (fun v ->
        match producer_of_var t v with
        | None -> true
        | Some p -> List.mem p op_done)
      n.op_inputs
  in
  let rec go remaining op_done acc =
    if remaining = [] then List.rev acc
    else begin
      match List.partition (ready op_done) remaining with
      | [], _ -> failwith "Rfg.topological_ops: cycle in route-flow graph"
      | now, later ->
          go later (now @ op_done) (List.rev_append now acc)
    end
  in
  go (op_ids t) [] []

type valuation = Bgp.Route.t list SMap.t

let value valuation id =
  Option.value (SMap.find_opt id valuation) ~default:[]

let rec eval t ~inputs =
  let valuation = ref SMap.empty in
  SMap.iter
    (fun id _ -> valuation := SMap.add id [] !valuation)
    t.vars;
  List.iter
    (fun (id, routes) ->
      match kind_of_var t id with
      | Some (Input _) -> valuation := SMap.add id routes !valuation
      | Some _ -> invalid_arg ("Rfg.eval: " ^ id ^ " is not an input variable")
      | None -> invalid_arg ("Rfg.eval: unknown variable " ^ id))
    inputs;
  List.iter
    (fun op_id ->
      let n = SMap.find op_id t.ops in
      let in_values = List.map (fun v -> value !valuation v) n.op_inputs in
      let result =
        match n.body with
        | Prim op -> Operator.apply op in_values
        | Composite inner ->
            (* Bind outer input values positionally to the inner input
               variables in lexicographic order (the documented contract). *)
            let inner_inputs =
              List.filter
                (fun vid ->
                  match SMap.find_opt vid inner.vars with
                  | Some (Input _) -> true
                  | _ -> false)
                (List.map fst (SMap.bindings inner.vars))
            in
            let seeded = List.combine inner_inputs in_values in
            let inner_valuation = eval inner ~inputs:seeded in
            let out_id =
              SMap.fold
                (fun vid kind acc ->
                  match kind with Output _ -> Some vid | _ -> acc)
                inner.vars None
            in
            (match out_id with
            | Some vid -> value inner_valuation vid
            | None -> [])
      in
      valuation := SMap.add n.op_output result !valuation)
    (topological_ops t);
  !valuation

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  SMap.iter
    (fun id kind ->
      let k =
        match kind with
        | Input a -> "input from " ^ Bgp.Asn.to_string a
        | Internal -> "internal"
        | Output a -> "output to " ^ Bgp.Asn.to_string a
      in
      Format.fprintf ppf "var %s (%s)@," id k)
    t.vars;
  SMap.iter
    (fun id n ->
      let body =
        match n.body with
        | Prim op -> Format.asprintf "%a" Operator.pp op
        | Composite inner ->
            Printf.sprintf "composite[%d vertices]"
              (SMap.cardinal inner.vars + SMap.cardinal inner.ops)
      in
      Format.fprintf ppf "op %s: %s(%s) -> %s@," id body
        (String.concat ", " n.op_inputs)
        n.op_output)
    t.ops;
  Format.fprintf ppf "@]"
