(** Route-flow graphs (§2.1, §3.5).

    A bipartite DAG: {e variable} vertices hold sets of routes, {e operator}
    vertices compute.  "An edge (o, v) from an operator o to a variable v
    indicates that v is computed by o; an edge (v, o) indicates that v is an
    input to o" (§3.5).  Each variable is computed by at most one operator;
    operator inputs are ordered (some operators, like [Shorter_of], are not
    symmetric).

    Vertex identifiers are strings; {!Pvr_merkle.Bitstring.of_id} maps them
    to the prefix-free Merkle paths of §3.6. *)

type vertex_id = string

type vertex_kind =
  | Input of Pvr_bgp.Asn.t
      (** A variable fed by a neighbor's announcement (r_1..r_k in Fig. 1). *)
  | Internal  (** A variable computed inside the graph. *)
  | Output of Pvr_bgp.Asn.t
      (** A variable exported to a neighbor (r_o in Fig. 1). *)

type t

val empty : t

val add_var : t -> vertex_id -> vertex_kind -> t
(** @raise Invalid_argument on duplicate ids. *)

val add_op : t -> vertex_id -> Operator.t -> inputs:vertex_id list -> output:vertex_id -> t
(** Wire an operator: reads the [inputs] variables (in order), computes the
    [output] variable.  All the variables must exist already.
    @raise Invalid_argument on duplicate ids, missing variables, or if
    [output] already has a producer. *)

val add_composite :
  t -> vertex_id -> inner:t -> inputs:vertex_id list -> output:vertex_id -> t
(** A {e composite} operator (§4 "Structural privacy": "a composite operator
    whose internal structure is only revealed to authorized neighbors,
    analogous to ... Davidson et al.").  [inner] is a whole route-flow
    graph; its input variables bind positionally, in lexicographic id
    order, to the outer [inputs], and its single output variable feeds the
    outer [output].  Unauthorized viewers of the vertex learn only that it
    is a composite; {!Pvr} commits the internals in a nested tree.
    @raise Invalid_argument if the inner graph's input count differs from
    [inputs], or it does not have exactly one output variable. *)

val composite_of : t -> vertex_id -> t option
(** The inner graph of a composite operator vertex. *)

val is_operator_vertex : t -> vertex_id -> bool
(** Primitive or composite. *)

val var_ids : t -> vertex_id list
val op_ids : t -> vertex_id list
val vertex_ids : t -> vertex_id list

val kind_of_var : t -> vertex_id -> vertex_kind option
val operator_of : t -> vertex_id -> Operator.t option
val inputs_of_op : t -> vertex_id -> vertex_id list
val producer_of_var : t -> vertex_id -> vertex_id option
(** The operator computing a variable, if any. *)

val consumers_of_var : t -> vertex_id -> vertex_id list
(** Operators reading a variable. *)

val predecessors : t -> vertex_id -> vertex_id list
(** Graph predecessors of any vertex (vars of an op, producer op of a
    var). *)

val successors : t -> vertex_id -> vertex_id list

val input_vars : t -> (vertex_id * Pvr_bgp.Asn.t) list
val output_vars : t -> (vertex_id * Pvr_bgp.Asn.t) list

val topological_ops : t -> vertex_id list
(** Operator ids in dependency order.
    @raise Failure on a cyclic graph. *)

type valuation = Pvr_bgp.Route.t list Map.Make(String).t

val eval : t -> inputs:(vertex_id * Pvr_bgp.Route.t list) list -> valuation
(** Evaluate the whole graph: seed the input variables (unseeded inputs are
    empty), run operators in topological order, return every variable's
    value. *)

val value : valuation -> vertex_id -> Pvr_bgp.Route.t list

val pp : Format.formatter -> t -> unit
