(* Alias analysis: computes, for every memory load, a dependency token
   identifying the memory state it observes (see
   {!Mir_util.compute_load_deps}). The result is stored in the pass
   context; GVN recomputes its own tokens because the modeled GVN CVEs
   are precisely bugs in that computation. The IR itself is not modified,
   so this pass's Δ is always empty — as in IonMonkey, where Alias
   Analysis only annotates the graph. *)

module Mir = Jitbull_mir.Mir

let run (ctx : Pass.ctx) (g : Mir.t) =
  ctx.Pass.load_deps <- Some (Mir_util.compute_load_deps g)

let pass : Pass.t = { Pass.name = "aliasanalysis"; can_disable = true; run }
