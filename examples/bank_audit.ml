(* Auditing a banking workload with every analysis in the toolkit:

     dune exec examples/bank_audit.exe

   A correct lock-striped transfer service and a subtly broken variant (the
   balance check and the withdrawal live in different critical sections).
   The broken variant is race-free — a race detector alone says nothing —
   but both the cooperability checker and the atomicity baseline expose the
   check-then-act window, and exhaustive exploration shows the overdraft is
   reachable. *)

open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

let broken_source =
  {|
var balance = 100;
var overdrafts = 0;
lock m;
array tids[2];

fn withdraw(amount) {
  var ok = 0;
  sync (m) {
    if (balance >= amount) {
      ok = 1;
    }
  }
  // The window: another teller can withdraw between check and debit.
  if (ok == 1) {
    sync (m) {
      balance = balance - amount;
      if (balance < 0) {
        overdrafts = overdrafts + 1;
      }
    }
  }
}

fn main() {
  tids[0] = spawn withdraw(80);
  tids[1] = spawn withdraw(80);
  join tids[0];
  join tids[1];
  print(balance);
  print(overdrafts);
}
|}

let audit name prog =
  Format.printf "@.=== %s ===@." name;
  let _, trace = Runner.record ~sched:(Sched.random ~seed:99 ()) prog in
  let coop = Cooperability.check trace in
  let atom =
    Option.get
      (Coop_pipeline.run ~atomize:true (Coop_trace.Source.of_trace trace))
        .Coop_pipeline.atomizer
  in
  Format.printf "races: %d | cooperability violations: %d | atomicity warnings: %d@."
    (List.length coop.Cooperability.races)
    (List.length coop.Cooperability.violations)
    (List.length atom.Coop_atomicity.Atomizer.warnings);
  List.iter
    (fun v -> Format.printf "  coop: %a@." Automaton.pp_violation v)
    coop.Cooperability.violations

let () =
  (* The correct workload from the registry: conserved total. *)
  let bank = Registry.program_of ~threads:3 ~size:10 (Option.get (Registry.find "bank")) in
  audit "lock-striped bank (correct)" bank;

  (* The broken check-then-act teller. *)
  let broken = Compile.source broken_source in
  audit "check-then-act teller (buggy)" broken;

  (* Exhaustive exploration shows the overdraft is a real behaviour. *)
  let r = Explore.run ~max_states:200_000 Explore.Preemptive broken in
  let overdraft_reachable =
    Behavior.Set.exists
      (fun b -> match b.Behavior.globals with _ :: o :: _ -> o > 0 | _ -> false)
      r.Explore.behaviors
  in
  Format.printf "@.exploration: %d behaviours, overdraft reachable: %b@."
    (Behavior.Set.cardinal r.Explore.behaviors)
    overdraft_reachable;
  assert overdraft_reachable;

  (* And with the inferred yields in place, cooperative exploration exhibits
     the same behaviours: the bug is now findable by sequential reasoning
     plus yields. *)
  let inf = Infer.infer broken in
  let v = Equivalence.compare ~yields:inf.Infer.yields broken in
  Format.printf "with %d inferred yield(s): preemptive == cooperative: %b@."
    (Coop_trace.Loc.Set.cardinal inf.Infer.yields)
    v.Equivalence.equal
