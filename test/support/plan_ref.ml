(* The hashtable-based [Plan.build] that the array-indexed one
   replaced.  Kept as the reference the shipped builder is tested
   against. *)

open Peel_topology
open Peel_prefix
open Peel.Plan

let build ?budget fabric ~source ~dests =
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  let m = tor_id_bits fabric in
  let mp = pod_id_bits fabric in
  let multi_pod = Fabric.pods fabric > 1 in
  (* Destination ToR-id set per pod, and endpoints per (pod, tor id). *)
  let pod_tors = Hashtbl.create 16 in (* pod -> tor idx set (sorted list) *)
  let members = Hashtbl.create 64 in (* (pod, tor idx) -> endpoints *)
  List.iter
    (fun d ->
      let tor = Fabric.attach_tor fabric d in
      let pod = Fabric.pod_of_tor fabric tor in
      let idx = Fabric.tor_idx_in_pod fabric tor in
      Hashtbl.replace pod_tors pod
        (idx :: Option.value (Hashtbl.find_opt pod_tors pod) ~default:[]);
      Hashtbl.replace members (pod, idx)
        (d :: Option.value (Hashtbl.find_opt members (pod, idx)) ~default:[]))
    dests;
  let signature pod =
    List.sort_uniq compare (Hashtbl.find pod_tors pod)
  in
  (* Group pods by identical ToR signature. *)
  let groups = Hashtbl.create 8 in (* signature -> pod list *)
  Hashtbl.iter
    (fun pod _ ->
      let s = signature pod in
      if not (List.mem pod (Option.value (Hashtbl.find_opt groups s) ~default:[]))
      then
        Hashtbl.replace groups s
          (pod :: Option.value (Hashtbl.find_opt groups s) ~default:[]))
    pod_tors;
  let cover_tors targets =
    match budget with
    | None -> Cover.exact_cover ~m targets
    | Some b -> Cover.budgeted_cover ~m ~budget:b targets
  in
  let packets = ref [] in
  let emit ~pod_prefix ~tor_prefix ~pods =
    let pods = List.sort compare pods in
    let covered_ids = Cover.expand ~m tor_prefix in
    let tors, waste, endpoints =
      List.fold_left
        (fun (tors, waste, eps) pod ->
          let pod_tors_arr = Fabric.tors_of_pod fabric pod in
          List.fold_left
            (fun (tors, waste, eps) idx ->
              if idx >= Array.length pod_tors_arr then (tors, waste, eps)
              else begin
                let tor = pod_tors_arr.(idx) in
                match Hashtbl.find_opt members (pod, idx) with
                | Some ms -> (tor :: tors, waste, List.rev_append ms eps)
                | None -> (tor :: tors, tor :: waste, eps)
              end)
            (tors, waste, eps) covered_ids)
        ([], [], []) pods
    in
    packets :=
      {
        pod_prefix;
        tor_prefix;
        pods;
        tors = List.sort compare tors;
        endpoints = List.sort compare endpoints;
        waste_tors = List.sort compare waste;
      }
      :: !packets
  in
  Hashtbl.iter
    (fun sig_tors pods ->
      let tor_covers = cover_tors sig_tors in
      if multi_pod then begin
        let pod_covers = Cover.exact_cover ~m:mp pods in
        List.iter
          (fun pp ->
            let covered_pods =
              List.filter (fun p -> List.mem p pods) (Cover.expand ~m:mp pp)
            in
            List.iter
              (fun tp -> emit ~pod_prefix:(Some pp) ~tor_prefix:tp ~pods:covered_pods)
              tor_covers)
          pod_covers
      end
      else
        List.iter (fun tp -> emit ~pod_prefix:None ~tor_prefix:tp ~pods) tor_covers)
    groups;
  let packets =
    List.sort
      (fun a b -> compare (a.pods, a.tor_prefix) (b.pods, b.tor_prefix))
      !packets
  in
  { source; dests; packets; header_bytes = header_bytes_for fabric }
