"""Acceptance suite: every criterion at its stated sample size and tolerance.

Each test prints one PASS/FAIL line for its criterion.  Never-observed-event
monitors are tallied across all batches the suite generates and asserted
zero at the end over at least five million paths.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import levyladder as ll
from levyladder import rw_ladder as rl
from levyladder.rng import RngPolicy
from levyladder import runner

POL = RngPolicy(seed=1789, chunk_size=1 << 16)

TALLY: dict[str, int] = {"paths": 0}


def _tally(n_paths: int, monitors: dict[str, int]) -> None:
    TALLY["paths"] += int(n_paths)
    for k, v in monitors.items():
        TALLY[k] = TALLY.get(k, 0) + int(v)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def test_a01_ladder_dp_equals_exhaustive_enumeration():
    F = Fraction
    fixtures = [
        (rl.LatticeWalkSpec(1.0, (1, -1), (F(1, 2), F(1, 2)), 1.0), 8),
        (rl.LatticeWalkSpec(1.0, (-1, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), 1.0), 7),
        (rl.LatticeWalkSpec.from_process(ll.P3), 8),
    ]
    ok = True
    for spec, K in fixtures:
        dp = rl.renewal_tables(spec, K)
        bf = rl.brute_force_tables(spec, K)
        ok &= dp.u_layers == bf.u_layers and dp.uhat_layers == bf.uhat_layers
    _report("A1 ladder DP oracle", ok, f"{len(fixtures)} fixtures, exact rational equality")


def test_a02_embedded_renewal_functions_match_mc():
    n = 100_000
    walk = rl.LatticeWalkSpec.from_process(ll.P3)
    table = rl.renewal_tables(walk, rl.truncation_depth(1.0, 2.0, 1e-10))
    ts, xs = (0.5, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0)
    grid = ll.estimate_V(ll.P3, ts, xs, n, POL.substream("a2v"))
    worst = 0.0
    ok = True
    for t in ts:
        for x in xs:
            exact, bound = rl.v_exact(table, 1.0, t, x)
            cell = grid.cell(t, x)
            gap = abs(cell.value - exact)
            ok &= gap <= 3 * cell.se + bound
            worst = max(worst, gap - 3 * cell.se - bound)
    cells = [(t, x) for t in ts for x in xs]
    ests = ll.dual_ladder_cells(ll.P3, cells, n, POL.substream("a2vh"))
    for (t, x), est in zip(cells, ests):
        exact, bound = rl.vhat_exact(table, 1.0, t, x)
        gap = abs(est.value - exact)
        ok &= gap <= 3 * est.se + bound + 1e-12
        worst = max(worst, gap - 3 * est.se - bound)
    _tally(n * 24, {})
    _report("A2 embedded renewal functions (exact vs MC)", ok, f"worst margin {worst:.2e}")


def test_a03_creeping_time_identity_and_support():
    n = 1_000_000
    delta = 0.005
    ok = True
    details = []
    for t, u in ((0.5, 0.25), (0.5, 0.45), (0.8, 1.2)):
        sub = POL.substream(f"a3:{t}:{u}")
        p, mon = ll.estimate_p(ll.P1, t, u, n, sub.substream("p"))
        band = ll.fluct_boxes(ll.P1, [(0.0, t, u - delta, u)], n, sub.substream("b"))[0]
        band2 = ll.fluct_boxes(ll.P1, [(0.0, t, u - 2 * delta, u - delta)], n,
                               sub.substream("b2"))[0]
        deriv = ll.P1.drift * band.value / delta
        bias = ll.P1.drift * abs(band.value - band2.value) / delta
        se_tot = math.hypot(p.se, ll.P1.drift * band.se / delta)
        gap = abs(p.value - deriv)
        ok &= gap <= 3 * se_tot + bias
        details.append(f"(t={t},u={u}) gap={gap:.4f} budget={3 * se_tot + bias:.4f}")
        _tally(n, mon)
    zero, mon = ll.estimate_p(ll.P1, 0.3, 1.5, n, POL.substream("a3zero"))
    ok &= zero.value == 0.0
    _tally(n, mon)
    lb, mon = ll.estimate_p(ll.P1, 0.5, 0.25, n, POL.substream("a3lb"))
    ok &= lb.value >= math.exp(-0.5) - 3 * lb.se
    _tally(n, mon)
    _report("A3 creeping-time derivative identity", ok,
            "; ".join(details) + f"; p(0.3,1.5)={zero.value}")


def test_a04_occupation_density_identity():
    n = 100_000
    ok = True
    details = []
    for fixture, spec in (("P1", ll.P1), ("B1", ll.B1)):
        for u in (0.4, 0.9):
            rep = ll.check_subpint(spec, 0.5, u, n, POL.substream(f"a4:{fixture}:{u}"),
                                   fixture=fixture)
            ok &= rep.passed
            details.append(f"{fixture} u={u}: |{rep.lhs:.4f}-{rep.rhs:.4f}|<={rep.budget:.4f}")
            _tally(rep.n_paths, rep.monitors)
    _report("A4 integral of p equals drift times V", ok, "; ".join(details))


def test_a05_quintuple_law():
    n = 1_000_000
    rep3 = ll.check_quintuple(ll.P3, 2.0, n, POL.substream("a5p3"), cap=50_000.0,
                              fixture="P3")
    _tally(rep3.n_paths, rep3.monitors)
    d3 = rep3.details[0]
    ok = rep3.passed and d3["excluded_mass"] < 0.01 and d3["creep_mass"] == 0.0

    # cell-by-cell agreement with the exact composition on the coarse
    # finite-time cells (where censoring cannot enter), within 3 binomial SE;
    # each coarse cell sums the cells of the check's own measures
    emp, rhs = rep3.measures
    assert emp.total_mass + emp.excluded_mass == pytest.approx(1.0, abs=1e-12)
    edges = (0.0, 0.5, 2.0, 8.0, 32.0, 128.0, math.inf)
    fine = emp.axes[3].values  # the check's edges, the same on the t axis
    assert emp.axes[4].values == fine and fine[-1] == edges[-1]
    starts = [fine.index(e) for e in edges[:-1]]
    emp_mass, rhs_mass = (np.add.reduceat(np.add.reduceat(m.mass, starts, axis=3), starts, axis=4)
                          for m in (emp, rhs))
    finite = np.zeros(rhs_mass.shape, dtype=bool)
    finite[..., : len(edges) - 2, : len(edges) - 2] = True
    sel = finite & (rhs_mass >= 30.0 / n)
    zscores = np.abs(emp_mass - rhs_mass)[sel] / np.sqrt(
        rhs_mass[sel] * (1 - rhs_mass[sel]) / n
    )
    ok &= bool((zscores <= 3.0).all())

    rep1 = ll.check_quintuple(ll.P1, 0.5, n, POL.substream("a5p1"), fixture="P1")
    _tally(rep1.n_paths, rep1.monitors)
    d1 = rep1.details[0]
    ok &= rep1.passed and d1["fibre_dist"] <= d1["fibre_budget"] and d1["tv"] <= 0.03
    _report(
        "A5 quintuple law with creeping", ok,
        f"P3 TV={d3['tv']:.4f}<=0.02 excl={d3['excluded_mass']:.4f} "
        f"cellwise max z={zscores.max():.2f}; "
        f"P1 TV={d1['tv']:.4f}<=0.03 fibre gap={d1['fibre_dist']:.4f}"
        f"<={d1['fibre_budget']:.4f}",
    )


def test_a06_quadruple_law():
    n = 1_000_000
    rep = ll.check_quadruple(ll.B1, 1.5, n, POL.substream("a6"), fixture="B1")
    _tally(rep.n_paths, rep.monitors)
    d = rep.details[0]
    ok = rep.passed and rep.distance <= 0.02
    _report("A6 quadruple law", ok,
            f"TV={rep.distance:.4f}<=0.02, creep atom {d['creep_mass_emp']:.4f}"
            f" vs {d['creep_mass_rhs']:.4f}")


def test_a07_amicale_inversee_and_creeping():
    rep3 = ll.check_amicale(ll.P3, 1_000_000, POL.substream("a7p3"), fixture="P3")
    _tally(rep3.n_paths, rep3.monitors)
    rep2 = ll.check_amicale(ll.P2, 200_000, POL.substream("a7p2"), fixture="P2")
    _tally(rep2.n_paths, rep2.monitors)
    d2 = rep2.details[-1]
    mass_gap = abs(rep2.lhs - ll.P2.rate)
    ok2 = (rep2.passed and rep2.details[0]["x_pos_mass"] == 0.0
           and mass_gap <= 3 * rep2.se_lhs + ll.P2.rate * rep2.censored_mass
           and d2["x0_rhs"] == 0.0)
    rep1 = ll.check_amicale(ll.P1, 200_000, POL.substream("a7p1"), fixture="P1")
    _tally(rep1.n_paths, rep1.monitors)
    d1 = rep1.details[-1]
    ok1 = rep1.passed and d1["x0_mass"] >= 5 * d1["x0_se"]
    ok = rep3.passed and ok2 and ok1
    _report("A7 equation amicale inversee", ok,
            f"P3 cellwise 3SE ok; P2 zero-fibre mass {rep2.lhs:.4f}~{ll.P2.rate}; "
            f"P1 zero-fibre {d1['x0_mass']:.4f} >= 5*{d1['x0_se']:.5f}")


def test_a08_transform_identity_subordinator():
    n = 100_000
    ok = True
    details = []
    for tag, params in (
        ("second-factorization", ll.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0)),
        ("derivative", ll.TransformParams(1.0, 2.0, 1.0, 0.5, 0.5)),
    ):
        rep = ll.slfi_check(ll.B1, params, n, POL.substream(f"a8:{tag}"), u_nodes=40,
                            fixture="B1")
        rel = abs(rep.lhs - rep.rhs) / abs(rep.rhs)
        rel_budget = 0.02 + 3 * rep.se_lhs / abs(rep.rhs)
        ok &= rep.passed and rel <= rel_budget
        details.append(f"{tag}: rel={rel:.4f}<={rel_budget:.4f}")
        _tally(rep.n_paths, rep.monitors)
    _report("A8 Laplace identity (subordinator)", ok, "; ".join(details))


def test_a09_transform_identity_fluctuation():
    rep = ll.slfi_fluct_check(ll.P2, ll.TransformParams(1.0, 2.0, 0.0, 1.0, 1.0),
                              1_000_000, POL.substream("a9"), fixture="P2")
    rel = abs(rep.lhs - rep.rhs) / abs(rep.rhs)
    ok = rep.passed and rel <= 0.03
    _tally(rep.n_paths, rep.monitors)
    _report("A9 Laplace identity (fluctuation level)", ok,
            f"lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} rel={rel:.4f}<=0.03")


def test_a10_wiener_hopf_normalisation():
    rep = ll.wiener_hopf_check(ll.P3, (0.5, 1.0, 2.0), 200_000, POL.substream("a10"),
                               fixture="P3")
    ok = rep.passed and all(r["rel_err"] <= 0.03 for r in rep.details)
    _tally(rep.n_paths, rep.monitors)
    _report("A10 Wiener-Hopf product", ok,
            "; ".join(f"a={r['a']}: rel={r['rel_err']:.4f}" for r in rep.details))


def test_a11_renewal_transform_consistency():
    n = 50_000
    ok = True
    worst = 0.0
    for a in (0.0, 0.5, 1.0, 2.0):
        for b in (0.0, 0.5, 1.0, 2.0):
            est = ll.lt_V(ll.B1, a, b, n, POL.substream(f"a11:{a}:{b}"))
            kap = ll.kappa_biv(ll.B1, a, b)
            gap = abs(est.value * kap - 1.0)
            budget = 3 * est.se * kap + est.bias_bound * kap
            ok &= gap <= budget
            worst = max(worst, gap - budget)
            _tally(n, {})
    _report("A11 transform of V is 1/kappa", ok, f"16 grid points, worst margin {worst:.2e}")


def test_a12_never_observed_monitors():
    # top up if the suite was run partially, so the assertion is meaningful
    while TALLY["paths"] < 5_000_000:
        batch = ll.sample_passages(ll.P1, 0.5, 20.0, 500_000,
                                   POL.substream(f"a12:{TALLY['paths']}"))
        _tally(batch.n, batch.monitors)
        bbatch = ll.sample_biv_passages(ll.B1, 1.5, 500_000,
                                        POL.substream(f"a12b:{TALLY['paths']}"))
        _tally(bbatch.n, bbatch.monitors)
    bad = {k: v for k, v in TALLY.items() if k != "paths" and v != 0}
    ok = not bad and TALLY["paths"] >= 5_000_000
    _report("A12 never-observed events", ok,
            f"{TALLY['paths']} paths, counts {bad or 'all zero'}")


def test_a13_alpha_embedding():
    rep = ll.check_alpha_embedding(ll.P3, 1_000_000, POL.substream("a13"), fixture="P3")
    _tally(rep.n_paths, {})
    ok = rep.passed and rep.distance <= 0.01
    _report("A13 embedded-walk triple law", ok, f"sup-CDF={rep.distance:.5f}<=0.01")


def test_a14_reproducibility_across_workers(tmp_path):
    cfg = {
        "seed": 4242,
        "n": 4000,
        "chunk_size": 1024,
        "checks": [
            {"name": "p-estimate", "fixture": "P1", "t": 0.5, "u": [0.25, 0.45]},
            {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "n": 15000},
            {"name": "V-grid", "fixture": "B1", "t": [0.5, 1.0], "u": [0.5, 1.0]},
            {"name": "subpint", "fixture": "B1", "t": 0.5, "u": 0.4},
            {"name": "quadruple", "fixture": "B1", "u": 1.5, "n": 15000},
            {"name": "amicale", "fixture": "P2", "n": 15000},
            {"name": "slfi", "fixture": "B1", "mu": 1, "rho": 2, "ell": 0,
             "nu": 1, "theta": 1, "n": 2000},
            {"name": "wiener-hopf", "fixture": "P3", "a": [1.0], "n": 15000},
            {"name": "resolvent", "fixture": "S1", "q": 1.0, "u": 0.5, "n": 15000},
            {"name": "alpha", "fixture": "P3", "n": 15000},
        ],
    }
    outs = []
    for tag, workers in (("w1", 1), ("w3", 3), ("w1b", 1)):
        out = str(tmp_path / tag)
        raw = json.loads(json.dumps(cfg))
        raw["out"] = out
        raw["workers"] = workers
        runner.run(raw)
        outs.append(out)
    ok = True
    for name in sorted(os.listdir(outs[0])):
        blobs = [open(os.path.join(o, name), "rb").read() for o in outs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    _report("A14 byte-identical reruns across workers", ok,
            f"{len(os.listdir(outs[0]))} files compared over workers 1/3/1")
