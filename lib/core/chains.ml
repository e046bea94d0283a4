type chain = string list

let default_max_chains = 4096
let default_max_length = 64

let extract ?(max_chains = default_max_chains) ?(max_length = default_max_length)
    (g : Depgraph.t) : chain list =
  let out = ref [] in
  let count = ref 0 and opcode = Array.init (Depgraph.size g) (Depgraph.opcode g) in
  (* Algorithm 1, MAKECHAINS: extend the prefix until a node with no
     dependencies. *)
  let rec walk prefix v depth =
    if !count < max_chains then begin
      let prefix = opcode.(v) :: prefix in
      let first = g.Depgraph.dep_start.(v) and last = g.Depgraph.dep_start.(v + 1) - 1 in
      if first > last || depth >= max_length then begin
        out := List.rev prefix :: !out;
        incr count
      end
      else for i = first to last do walk prefix g.Depgraph.deps.(i) (depth + 1) done
    end
  in
  List.iter (fun r -> walk [] r 0) (Depgraph.roots g);
  List.rev !out

let ngrams n chain =
  let len = List.length chain in
  if len <= n then [ chain ]
  else begin
    let arr = Array.of_list chain in
    List.init (len - n + 1) (fun i -> Array.to_list (Array.sub arr i n))
  end

let chain_to_string chain = String.concat "->" chain
