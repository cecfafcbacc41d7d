(** Compact secondary indexes over the evidence plane.

    Rows live in one append-only array in journal order — ascending
    (epoch, prover, prefix) — and every access path below returns row ids
    in ascending order, so merged/filtered results keep the natural order
    without re-sorting.  Three indexes hang off the array:

    - per-epoch segments (an epoch's rows are contiguous), giving range
      scans for [epoch > k]-style bounds;
    - per-prover posting lists;
    - a binary trie keyed on {!Pvr_merkle.Bitstring.of_int_bits} prefix
      bit paths, where CIDR containment is subtree traversal.

    [est_*] are exact candidate counts the planner uses as costs; the
    matching [ids_*] fetch the candidates. *)

module Bgp = Pvr_bgp

type t

val create : run_id:string -> unit -> t

val run_id : t -> string
val row_count : t -> int
val max_epoch : t -> int
(** Highest epoch folded in; 0 when empty. *)

val row : t -> int -> Row.t
(** @raise Invalid_argument when the id is out of range. *)

val ids_all : t -> int list
val ids_prover : t -> Bgp.Asn.t -> int list
val est_prover : t -> Bgp.Asn.t -> int

val ids_prefix : t -> exact:bool -> Bgp.Prefix.t -> int list
(** [exact:false] is containment: every row whose prefix the argument
    covers. *)

val est_prefix : t -> exact:bool -> Bgp.Prefix.t -> int
val ids_epoch_range : t -> lo:int -> hi:int -> int list
val est_epoch_range : t -> lo:int -> hi:int -> int

val build : ?quiet:bool -> dir:string -> unit -> (t, string) result
(** Materialize the index for the newest run recorded in [dir]'s journal,
    in one pass over {!Pvr_store.Store.fold_frames} that decodes epoch
    records and rows frames.  Only rows frames {e committed} by an epoch
    record of the same run are folded in; orphans from a crash are
    excluded, which is what makes live and recovered stores answer
    queries byte-identically.  Every frame of the walk is counted in
    ["query.scan.frames"].  [quiet] is accepted and ignored: the build
    prints nothing.  [Error] when [dir] has no journal. *)
