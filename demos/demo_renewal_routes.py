"""Renewal functions of a killed bivariate subordinator, three ways.

The same object V(t, u) is produced exactly, as the finite sum over
jump-count vectors of B1's atoms, by closed-form killing integration along
each sampled path, and (through the occupation-density identity) by
integrating creep probabilities over levels, which the subpint check
compares with d_Y times the exact sum.  The sampled triple minimum, which
draws the killing time instead of integrating it out, is no longer a
library route; the tests keep it as a reference.  The script also runs the
quadruple law at one level, whose right side is built from the exact sum,
and the resolvent route to the creeping time of an increasing process,
whose right side d u^q(u) is a closed form.
"""

import levyladder as ll
from levyladder.rng import RngPolicy

policy = RngPolicy(seed=13)
t, u = 0.5, 0.9

cell = ll.estimate_V(ll.B1, [t], [u], 40_000, policy.substream("int")).cell(t, u)
exact, _, _ = ll.exact_V(ll.B1, t, u)
print(f"V({t}, {u}) for B1: exact {exact:.5f}, "
      f"integrated-killing {cell.value:.5f} +- {cell.se:.5f}")

rep = ll.check_subpint(ll.B1, t, u, 40_000, policy.substream("subpint"), fixture="B1")
print(f"integral of p(t, v) dv = d_Y V(t, u): lhs={rep.lhs:.5f} +- {rep.se_lhs:.5f}, "
      f"exact rhs={rep.rhs:.7f}, trapezoid error {rep.details[0]['quad_bias']:.2e} "
      f"[{'PASS' if rep.passed else 'FAIL'}]")

rep = ll.check_quadruple(ll.B1, 1.5, 100_000, policy.substream("quad"), fixture="B1")
d = rep.details[0]
print(f"quadruple law at u=1.5: TV={rep.distance:.4f} (budget {rep.budget}), "
      f"creeping atom {d['creep_mass_emp']:.4f} vs {d['creep_mass_rhs']:.4f} "
      f"[{'PASS' if rep.passed else 'FAIL'}]")

rep = ll.check_resolvent_creep(ll.S1, 1.0, 0.5, 100_000, policy.substream("res"),
                               fixture="S1")
print(f"resolvent route to the creep time of S1 at q=1, u=0.5: "
      f"E[e^(-q tau); creep]={rep.lhs:.5f} +- {rep.se_lhs:.5f}, "
      f"closed form d u^q(u)={rep.rhs:.7f} [{'PASS' if rep.passed else 'FAIL'}]")
