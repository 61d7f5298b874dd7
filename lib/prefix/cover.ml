module Bits = Peel_util.Bits

type prefix = { value : int; len : int }

let validate ~m p =
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  if p.len < 0 || p.len > m then invalid_arg "Cover: prefix length out of range";
  if p.value < 0 || p.value >= Bits.pow2 p.len then
    invalid_arg "Cover: prefix value out of range"

let make ~m ~value ~len =
  let p = { value; len } in
  validate ~m p;
  p

(* Validation happens at construction ([make] / the cover builders);
   the per-id helpers below sit on the data-plane hot path and trust
   their input. *)
let block_size ~m p = Bits.pow2 (m - p.len)

let block_start ~m p = p.value * Bits.pow2 (m - p.len)

let covers ~m p id =
  id >= 0 && id < Bits.pow2 m && id lsr (m - p.len) = p.value

let expand ~m p =
  let start = block_start ~m p and size = block_size ~m p in
  List.init size (fun i -> start + i)

let parent p =
  if p.len = 0 then None else Some { value = p.value / 2; len = p.len - 1 }

let sibling p =
  if p.len = 0 then None else Some { value = p.value lxor 1; len = p.len }

let is_ancestor a p =
  a.len <= p.len && p.value lsr (p.len - a.len) = a.value

let to_string ~m p =
  validate ~m p;
  String.init m (fun i ->
      if i < p.len then if Bits.bit p.value (p.len - 1 - i) then '1' else '0'
      else '*')

let check_targets ~m targets =
  let size = Bits.pow2 m in
  List.iter
    (fun t ->
      if t < 0 || t >= size then invalid_arg "Cover: target outside identifier space")
    targets;
  let tgt = Array.make size false in
  List.iter (fun t -> tgt.(t) <- true) targets;
  tgt

let exact_cover ~m targets =
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  let tgt = check_targets ~m targets in
  (* Count of targets in the block of (value,len) via recursion. *)
  let rec go value len acc =
    let size = Bits.pow2 (m - len) in
    let start = value * size in
    let count = ref 0 in
    for i = start to start + size - 1 do
      if tgt.(i) then incr count
    done;
    if !count = 0 then acc
    else if !count = size then { value; len } :: acc
    else go ((2 * value) + 1) (len + 1) (go (2 * value) (len + 1) acc)
  in
  List.rev (go 0 0 [])

(* Lexicographic (over-coverage, prefix-count) objective. *)
let inf_pair = (max_int, max_int)
let pair_min ((a1, a2) as a) ((b1, b2) as b) =
  if a1 < b1 || (a1 = b1 && a2 <= b2) then a else b

let is_inf (x1, x2) = x1 = max_int && x2 = max_int

let pair_add ((a1, a2) as a) ((b1, b2) as b) =
  if is_inf a || is_inf b then inf_pair else (a1 + b1, a2 + b2)

let budgeted_cover ~m ~budget targets =
  if budget < 1 then invalid_arg "Cover.budgeted_cover: budget >= 1";
  if m < 0 || m > 24 then invalid_arg "Cover: m out of range (0..24)";
  let tgt = check_targets ~m targets in
  let bmax = budget in
  (* dp (value,len) = array over b in 0..bmax of best (overcov, count)
     using at most b prefixes inside this block, covering all its
     targets.  Memoized by the block's heap position [2^len + value];
     an empty array marks a block not yet solved. *)
  let memo = Array.make (Bits.pow2 (m + 1)) [||] in
  let rec dp value len =
    match memo.(Bits.pow2 len + value) with
    | [||] -> (
        let size = Bits.pow2 (m - len) in
        let start = value * size in
        let count = ref 0 in
        for i = start to start + size - 1 do
          if tgt.(i) then incr count
        done;
        let a = Array.make (bmax + 1) inf_pair in
        if !count = 0 then Array.fill a 0 (bmax + 1) (0, 0)
        else begin
          (* One prefix over the whole block. *)
          let whole = (size - !count, 1) in
          for b = 1 to bmax do
            a.(b) <- whole
          done;
          (* Or split between the two children. *)
          if len < m then begin
            let l = dp (2 * value) (len + 1) and r = dp ((2 * value) + 1) (len + 1) in
            for b = 1 to bmax do
              for b1 = 0 to b do
                a.(b) <- pair_min a.(b) (pair_add l.(b1) r.(b - b1))
              done
            done
          end;
          (* Monotonicity: allow using fewer prefixes. *)
          for b = 1 to bmax do
            a.(b) <- pair_min a.(b) a.(b - 1)
          done
        end;
        memo.(Bits.pow2 len + value) <- a;
        a)
    | a -> a
  in
  let _ = dp 0 0 in
  (* Reconstruct the choice achieving dp 0 0 budget. *)
  let rec rebuild value len b acc =
    let a = (dp value len).(b) in
    if a = (0, 0) then acc
    else begin
      let size = Bits.pow2 (m - len) in
      let start = value * size in
      let count = ref 0 in
      for i = start to start + size - 1 do
        if tgt.(i) then incr count
      done;
      if !count = 0 then acc
      else if a = (size - !count, 1) then { value; len } :: acc
      else begin
        assert (len < m);
        let l = dp (2 * value) (len + 1) and r = dp ((2 * value) + 1) (len + 1) in
        (* Find a split matching the optimum. *)
        let found = ref None in
        for b1 = 0 to b do
          if !found = None && pair_add l.(b1) r.(b - b1) = a then found := Some b1
        done;
        match !found with
        | Some b1 ->
            rebuild ((2 * value) + 1) (len + 1) (b - b1)
              (rebuild (2 * value) (len + 1) b1 acc)
        | None ->
            (* The optimum came from a smaller budget. *)
            rebuild value len (b - 1) acc
      end
    end
  in
  List.rev (rebuild 0 0 budget [])

let covered_set ~m prefixes =
  List.concat_map (expand ~m) prefixes |> List.sort_uniq compare

let over_coverage ~m prefixes ~targets =
  let tgt = check_targets ~m targets in
  List.length (List.filter (fun id -> not tgt.(id)) (covered_set ~m prefixes))

let is_cover ~m prefixes ~targets =
  let covered = covered_set ~m prefixes in
  List.for_all (fun t -> List.mem t covered) (List.sort_uniq compare targets)
