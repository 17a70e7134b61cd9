"""The quadruple Laplace-transform identity on an explicit bivariate
subordinator, and the transform of its renewal measure.

Both sides of the identity are produced by different machinery: the left by
integrating the level functional exactly along simulated paths, the right in
closed form from the Laplace exponent.  The second block checks the
reciprocal relation between the renewal-measure transform and the exponent
on a parameter grid.
"""

import levyladder as ll
from levyladder.rng import RngPolicy

policy = RngPolicy(seed=17)

print("quadruple transform identity on B1")
for tag, params in (
    ("generic (second factorization)", ll.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0)),
    ("derivative branch", ll.TransformParams(1.0, 2.0, 1.0, 0.5, 0.5)),
):
    rep = ll.slfi_check(ll.B1, params, 20_000, policy.substream(tag), fixture="B1")
    rel = abs(rep.lhs - rep.rhs) / abs(rep.rhs)
    print(f"  {tag:32s} lhs={rep.lhs:.5f} rhs={rep.rhs:.5f} rel gap={rel:.4f}"
          f" [{'PASS' if rep.passed else 'FAIL'}]")

print("\nrenewal transform times Laplace exponent (should be 1)")
for a, b in ((0.0, 0.0), (0.5, 1.0), (2.0, 0.5), (2.0, 2.0)):
    est = ll.lt_V(ll.B1, a, b, 40_000, policy.substream(f"lt{a}{b}"))
    kap = ll.kappa_biv(ll.B1, a, b)
    print(f"  (a,b)=({a},{b}): lt_V*kappa = {est.value * kap:.5f} +- {est.se * kap:.5f}")

print("\nfluctuation-level identity on the spectrally negative fixture P2")
rep = ll.slfi_fluct_check(ll.P2, ll.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0),
                          200_000, policy.substream("fluct"), fixture="P2")
print(f"  lhs={rep.lhs:.5f} rhs={rep.rhs:.5f} "
      f"rel gap={abs(rep.lhs - rep.rhs) / rep.rhs:.4f} [{'PASS' if rep.passed else 'FAIL'}]")
