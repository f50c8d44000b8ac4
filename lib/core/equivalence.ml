open Coop_runtime

type verdict = {
  preemptive : Explore.result;
  cooperative : Explore.result;
  equal : bool;
  preemptive_subset : bool;
}

let compare ?pool ?yields ?max_states ?max_segment prog =
  (* The two explorations are independent: with a pool each mode runs as
     its own task, the results in mode order. *)
  let explore mode = Explore.run ?yields ?max_states ?max_segment mode prog in
  let modes = [ Explore.Preemptive; Explore.Cooperative ] in
  let both =
    match pool with
    | Some p -> Coop_util.Pool.parallel_map p explore modes
    | None -> List.map explore modes
  in
  match both with
  | [ preemptive; cooperative ] ->
      let complete =
        preemptive.Explore.complete && cooperative.Explore.complete
      in
      {
        preemptive;
        cooperative;
        equal =
          complete
          && Behavior.Set.equal preemptive.Explore.behaviors
               cooperative.Explore.behaviors;
        preemptive_subset =
          complete
          && Behavior.Set.subset preemptive.Explore.behaviors
               cooperative.Explore.behaviors;
      }
  | _ -> assert false

let pp ppf v =
  Format.fprintf ppf
    "preemptive: %d behaviors/%d states%s, cooperative: %d behaviors/%d \
     states%s, equal=%b, pre⊆coop=%b"
    (Behavior.Set.cardinal v.preemptive.Explore.behaviors)
    v.preemptive.Explore.states
    (if v.preemptive.Explore.complete then "" else " (incomplete)")
    (Behavior.Set.cardinal v.cooperative.Explore.behaviors)
    v.cooperative.Explore.states
    (if v.cooperative.Explore.complete then "" else " (incomplete)")
    v.equal v.preemptive_subset
