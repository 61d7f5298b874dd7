open Peel_topology
open Peel_prefix
module Bits = Peel_util.Bits

type packet = {
  pod_prefix : Cover.prefix option;
  tor_prefix : Cover.prefix;
  pods : int list;
  tors : int list;
  endpoints : int list;
  waste_tors : int list;
}

type t = {
  source : int;
  dests : int list;
  packets : packet list;
  header_bytes : int;
}

let tor_id_bits fabric = Bits.ceil_log2 (max 2 (Fabric.tors_per_pod fabric))
let pod_id_bits fabric = Bits.ceil_log2 (max 2 (Fabric.pods fabric))

let header_bytes_for fabric =
  let m = tor_id_bits fabric in
  let tor_field = m + Bits.ceil_log2 (m + 1) in
  let pod_field =
    if Fabric.pods fabric <= 1 then 0
    else begin
      let mp = pod_id_bits fabric in
      mp + Bits.ceil_log2 (mp + 1)
    end
  in
  Bits.ceil_div (tor_field + pod_field) 8

let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* Sorts a list of distinct ints, skipping the sort when it already is. *)
let sorted l = if ascending l then l else List.sort Int.compare l

let build ?budget fabric ~source ~dests =
  let dests = Peel_steiner.Layer_peel.normalize_dests ~source dests in
  let m = tor_id_bits fabric in
  let mp = pod_id_bits fabric in
  let npods = Fabric.pods fabric in
  let tpp = Fabric.tors_per_pod fabric in
  (* Endpoints per (pod, ToR index) slot [pod * tpp + idx], and the
     slots that hold any. *)
  let members = Array.make (npods * tpp) [] in
  let used = ref [] in
  List.iter
    (fun d ->
      let tor = Fabric.attach_tor fabric d in
      let slot =
        (Fabric.pod_of_tor fabric tor * tpp) + Fabric.tor_idx_in_pod fabric tor
      in
      if members.(slot) = [] then used := slot :: !used;
      members.(slot) <- d :: members.(slot))
    dests;
  (* Each pod's ToR signature: its member ToR indices, ascending. *)
  let sigs = Array.make npods [] in
  List.iter
    (fun slot -> sigs.(slot / tpp) <- (slot mod tpp) :: sigs.(slot / tpp))
    (List.sort (fun a b -> Int.compare b a) !used);
  (* Pods sharing a signature form one group; [group_of.(pod)] names it
     by its first pod. *)
  let group_of = Array.make npods (-1) in
  let groups =
    List.init npods Fun.id
    |> List.filter (fun p -> sigs.(p) <> [])
    |> List.stable_sort (fun p q -> compare sigs.(p) sigs.(q))
    |> List.fold_left
         (fun acc p ->
           match acc with
           | (q :: _ as pods) :: rest when sigs.(p) = sigs.(q) ->
               group_of.(p) <- group_of.(q);
               (p :: pods) :: rest
           | _ ->
               group_of.(p) <- p;
               [ p ] :: acc)
         []
  in
  let cover_tors targets =
    match budget with
    | None -> Cover.exact_cover ~m targets
    | Some b -> Cover.budgeted_cover ~m ~budget:b targets
  in
  let packets = ref [] in
  (* Walk the covered (pod, ToR index) slots from the last one down, so
     prepending builds each list ascending wherever node ids follow
     slot order, as they do on fat-trees and leaf-spines. *)
  let emit ~pod_prefix ~tor_prefix ~pods =
    let ids = List.rev (Cover.expand ~m tor_prefix) in
    let tors = ref [] and waste = ref [] and endpoints = ref [] in
    List.iter
      (fun pod ->
        let pod_tors = Fabric.tors_of_pod fabric pod in
        List.iter
          (fun idx ->
            if idx < Array.length pod_tors then begin
              let tor = pod_tors.(idx) in
              tors := tor :: !tors;
              match members.((pod * tpp) + idx) with
              | [] -> waste := tor :: !waste
              | ms -> endpoints := List.rev_append ms !endpoints
            end)
          ids)
      (List.rev pods);
    packets :=
      {
        pod_prefix;
        tor_prefix;
        pods;
        tors = sorted !tors;
        endpoints = sorted !endpoints;
        waste_tors = sorted !waste;
      }
      :: !packets
  in
  List.iter
    (fun pods ->
      let gid = group_of.(List.hd pods) in
      let tor_covers = cover_tors sigs.(gid) in
      if npods > 1 then begin
        List.iter
          (fun pp ->
            let covered_pods =
              List.filter
                (fun p -> p < npods && group_of.(p) = gid)
                (Cover.expand ~m:mp pp)
            in
            List.iter
              (fun tp -> emit ~pod_prefix:(Some pp) ~tor_prefix:tp ~pods:covered_pods)
              tor_covers)
          (Cover.exact_cover ~m:mp pods)
      end
      else
        List.iter (fun tp -> emit ~pod_prefix:None ~tor_prefix:tp ~pods) tor_covers)
    groups;
  {
    source;
    dests;
    packets =
      List.sort
        (fun a b ->
          let c = compare a.pods b.pods in
          if c <> 0 then c else compare a.tor_prefix b.tor_prefix)
        !packets;
    header_bytes = header_bytes_for fabric;
  }

let num_packets t = List.length t.packets

let waste_tor_count t =
  List.fold_left (fun acc p -> acc + List.length p.waste_tors) 0 t.packets

let packet_tree fabric ~source packet =
  let dests = packet.endpoints @ packet.waste_tors in
  if dests = [] then None
  else Peel_steiner.Layer_peel.build (Fabric.graph fabric) ~source ~dests

let packet_trees fabric ~source ~dests =
  let plan = build fabric ~source ~dests in
  List.filter_map (fun packet -> packet_tree fabric ~source packet) plan.packets

let validate fabric t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Every destination in exactly one packet. *)
  let seen = Hashtbl.create 64 in
  let dup = ref None in
  List.iter
    (fun p ->
      List.iter
        (fun e ->
          if Hashtbl.mem seen e then dup := Some e else Hashtbl.replace seen e ())
        p.endpoints)
    t.packets;
  match !dup with
  | Some e -> fail "endpoint %d delivered by multiple packets" e
  | None ->
      let missing = List.filter (fun d -> not (Hashtbl.mem seen d)) t.dests in
      if missing <> [] then
        fail "endpoints not covered: %s"
          (String.concat "," (List.map string_of_int missing))
      else begin
        (* Waste racks really have no members. *)
        let member_tors =
          List.map (fun d -> Fabric.attach_tor fabric d) t.dests
          |> List.sort_uniq compare
        in
        let bad_waste =
          List.exists
            (fun p -> List.exists (fun w -> List.mem w member_tors) p.waste_tors)
            t.packets
        in
        if bad_waste then fail "a waste rack contains members" else Ok ()
      end
