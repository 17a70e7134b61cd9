"""The embedded-walk route to the dual renewal measure.

For a zero-drift compound Poisson path, run it until it first returns to
[0, inf) after its initial jump and record (position before, position at,
elapsed time).  That is one excursion below the running maximum, i.e. one
ladder jump, so the ladder-jump engine samples it: the triple is
(v, dx, ds).  Its law factorises through the strictly descending ladder
tables of the embedded walk, giving an exact target for the empirical
distribution.
"""

import levyladder as ll
from levyladder.rng import RngPolicy

policy = RngPolicy(seed=31)

batch = ll.sample_ladder_jumps(ll.P3, 200_000, policy.substream("alpha"), cap=12.0)
print(f"{batch.n} experiments, censored beyond the horizon: {batch.censored_mass:.4%}")
up = ~batch.censored & (batch.v == 0.0)
print(f"immediate upward returns (v = 0, ds = 0): {up.mean():.4f} "
      f"(first jump positive has probability 1/2)")

rep = ll.check_alpha_embedding(ll.P3, 200_000, policy.substream("check"), fixture="P3")
print(f"sup-CDF distance to the composed dual law: {rep.distance:.5f} "
      f"(budget {rep.budget}) [{'PASS' if rep.passed else 'FAIL'}]")

print("\nzero-fibre of the ladder jump measure (lattice fixture keeps mass there):")
rep = ll.check_amicale(ll.P3, 200_000, policy.substream("amicale"), fixture="P3")
d = rep.details[0]
print(f"  lhs = {d['x0_lhs']:.4f}   composed route = {d['x0_rhs']:.4f}   "
      f"[{'PASS' if rep.passed else 'FAIL'}]")
