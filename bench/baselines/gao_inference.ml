open Pvr_bgp

type inferred = (Asn.t * Asn.t * Relationship.t) list

module Edge = struct
  type t = Asn.t * Asn.t

  let compare (a1, b1) (a2, b2) =
    match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c
end

module Edge_map = Map.Make (Edge)

let infer ~degree paths =
  (* For each path, find the index of the maximum-degree AS (the "top
     provider"); edges before it go up, edges after it go down. *)
  let votes = ref Edge_map.empty in
  let vote a b rel =
    let key = if Asn.compare a b <= 0 then (a, b) else (b, a) in
    let rel = if Asn.compare a b <= 0 then rel else Relationship.invert rel in
    let cur = Option.value (Edge_map.find_opt key !votes) ~default:[] in
    votes := Edge_map.add key (rel :: cur) !votes
  in
  List.iter
    (fun path ->
      let arr = Array.of_list path in
      let n = Array.length arr in
      if n >= 2 then begin
        let top = ref 0 in
        for i = 1 to n - 1 do
          if degree arr.(i) > degree arr.(!top) then top := i
        done;
        for i = 0 to n - 2 do
          (* Edge between arr.(i) and arr.(i+1).  Remember: paths are
             nearest-first, so arr.(i+1) is *closer to the origin*; walking
             i -> i+1 goes towards the destination.  If i+1 <= top the
             origin side is below the top: arr.(i) is provider of...
             We reason from the top index: positions < top are on the
             receiving side (each learned the route from the next AS). *)
          if i + 1 < !top then
            (* both below the top on the receiving side: traffic flows up:
               arr.(i) is the customer of arr.(i+1)?  No: receiving side
               ASes are *descending* from the top towards the vantage
               point; arr.(i) learned from arr.(i+1), and in a valley-free
               path below the summit the one nearer the vantage point is
               the customer. *)
            vote arr.(i) arr.(i + 1) Relationship.Provider
          else if i >= !top then
            (* origin side: arr.(i+1) is below arr.(i): customer. *)
            vote arr.(i) arr.(i + 1) Relationship.Customer
          else
            (* the edge crossing the summit (i+1 = top = i+1, i < top):
               arr.(i+1) is the summit seen from below. *)
            vote arr.(i) arr.(i + 1) Relationship.Provider
        done
      end)
    paths;
  Edge_map.fold
    (fun (a, b) rels acc ->
      (* Majority vote per edge; peering when evenly split. *)
      let count rel = List.length (List.filter (Relationship.equal rel) rels) in
      let c = count Relationship.Customer and p = count Relationship.Provider in
      let rel =
        if c > p then Relationship.Customer
        else if p > c then Relationship.Provider
        else Relationship.Peer
      in
      (a, b, rel) :: acc)
    !votes []

let accuracy ~truth inferred =
  match inferred with
  | [] -> 0.0
  | _ ->
      let correct =
        List.length
          (List.filter
             (fun (a, b, rel) ->
               match Topology.relationship truth a b with
               | Some actual -> Relationship.equal actual rel
               | None -> false)
             inferred)
      in
      float_of_int correct /. float_of_int (List.length inferred)
