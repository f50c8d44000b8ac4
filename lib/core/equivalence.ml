open Coop_runtime

type verdict = {
  preemptive : Explore.result;
  cooperative : Explore.result;
  equal : bool;
  preemptive_subset : bool;
}

let compare ?pool ?yields ?max_states ?max_segment prog =
  (* The two explorations are themselves independent; with a pool each
     mode is spawned as its own task (which then spawns per-frontier
     subtasks inside it — nested spawning on one pool), and awaited in a
     fixed order for a deterministic verdict. *)
  let both =
    match pool with
    | Some p when Coop_util.Pool.jobs p > 1 ->
        let promises =
          List.map
            (fun mode ->
              Coop_util.Pool.spawn p (fun () ->
                  Explore.run ~pool:p ?yields ?max_states ?max_segment mode
                    prog))
            [ Explore.Preemptive; Explore.Cooperative ]
        in
        List.map (Coop_util.Pool.await p) promises
    | _ ->
        List.map
          (fun mode ->
            Explore.run ?yields ?max_states ?max_segment mode prog)
          [ Explore.Preemptive; Explore.Cooperative ]
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
