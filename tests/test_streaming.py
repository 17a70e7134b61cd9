"""The Monte Carlo checks fold their records one chunk at a time.

Two properties: a check's memory does not grow with ``n`` (it is set by the
chunk and the exact side), and every folded result equals the same
reduction of all ``n`` records drawn as one batch (``reference.py``),
including when ``n`` is not a multiple of the chunk size or is below it:
counts bit for bit, means and their SEs to their last bits.
"""

import tracemalloc

import numpy as np
import pytest

from levyladder import lawcheck as lc
from levyladder import passage as pg
from levyladder import renewal as rn
from levyladder import transforms as tr
from levyladder.fixtures import B1, P1, P2, P3, S1
from levyladder.processes import BivariateSubordinatorSpec
from levyladder.results import EstimateWithError, Moments, PathValues, fold
from levyladder.rng import RngPolicy, chunked_map

import reference

LATTICE_Y = BivariateSubordinatorSpec(d_z=0.3, d_y=0.0, q=0.1, atoms=((0.0, 1.0, 1.0),))


def test_chunked_map_draws_each_chunk_when_asked_in_order():
    calls = []
    it = chunked_map(lambda i, m, rng: calls.append((i, m)) or i, 2500, RngPolicy(1, 1000))
    assert calls == []
    assert next(it) == 0 and calls == [(0, 1000)]
    assert list(it) == [1, 2] and calls == [(0, 1000), (1, 1000), (2, 500)]


# ---------------------------------------------------------------------------
# Memory: a check holds one chunk of records, not n
# ---------------------------------------------------------------------------

CHUNK = 4096

MEMORY_CHECKS = {
    "ct1": lambda n, pol: rn.check_ct1(P1, 0.5, 0.25, n, pol),
    "amicale-P3": lambda n, pol: lc.check_amicale(P3, n, pol),
    "alpha-P3": lambda n, pol: lc.check_alpha_embedding(P3, n, pol),
    "quintuple-P3": lambda n, pol: lc.check_quintuple(P3, 2.0, n, pol,
                                                      cap=lc.QUINTUPLE_LATTICE_MIN_CAP),
    "quintuple-P1": lambda n, pol: lc.check_quintuple(P1, 0.5, n, pol),
    "quadruple-B1": lambda n, pol: lc.check_quadruple(B1, 1.5, n, pol),
    "wiener-hopf-P3": lambda n, pol: tr.wiener_hopf_check(P3, (0.5, 1.0, 2.0), n, pol),
    "resolvent-S1": lambda n, pol: tr.check_resolvent_creep(S1, 1.0, 0.5, n, pol),
    # 20 n paths, so that the ladder side's 5 n records pass its 20000 floor
    "slfi-fluct-P2": lambda n, pol: tr.slfi_fluct_check(
        P2, tr.TransformParams(1, 2, 0, 1, 1), 20 * n, pol),
}


def _traced_peak(run, n: int) -> int:
    tracemalloc.start()
    try:
        run(n, RngPolicy(7, chunk_size=CHUNK))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(MEMORY_CHECKS))
def test_peak_memory_does_not_grow_with_n(name):
    run = MEMORY_CHECKS[name]
    run(2 * CHUNK, RngPolicy(7, chunk_size=CHUNK))  # fills the exact sides' caches
    small, large = _traced_peak(run, 2 * CHUNK), _traced_peak(run, 16 * CHUNK)
    assert large <= 1.5 * small, (small, large)
    # a check that kept any float64 column of all n records would grow by
    # 8 bytes per record; the exact side alone can hide that in the ratio
    assert large - small < 8 * 14 * CHUNK, (small, large)


# ---------------------------------------------------------------------------
# Bit-equality: folded chunks against one whole batch
# ---------------------------------------------------------------------------

# n below the chunk size, and n that leaves a short last chunk
SIZES = [700, 2500]


def _pol(n):
    return RngPolicy(11 + n, chunk_size=1000)


def _one_column(col):
    """Mean about the first value and M2 of one whole column."""
    mean = col[0] + (col - col[0]).mean()
    return mean, ((col - mean) ** 2).sum()


def _columns(kind, n):
    rng = np.random.default_rng(n)
    if kind == "one":
        return 5.0 + rng.exponential(size=n)
    # 17 columns over twelve decades, most values 0
    values = rng.random((17, n)) * 10.0 ** rng.uniform(-6, 6, (17, 1))
    values[rng.random(values.shape) < 0.7] = 0.0
    return values


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["one", "wide"])
def test_folded_moments_match_one_column(kind, n):
    values = _columns(kind, n)
    chunks = (PathValues(values[..., a:a + 1000], np.zeros(1000, dtype=bool))
              for a in range(0, n, 1000))
    (m, _), _, _ = fold(chunks, PathValues.tally)
    assert m.n == n
    for j, col in enumerate(np.atleast_2d(values)):
        got = m[j] if values.ndim == 2 else m
        mean, m2 = _one_column(col)
        assert got.mean == pytest.approx(mean, rel=1e-15, abs=0)
        assert got.m2 == pytest.approx(m2, rel=1e-15, abs=0)


def test_equal_values_give_that_value_and_se_zero():
    m = Moments.of(np.full(700, 0.1)) + Moments.of(np.full(1800, 0.1))
    assert m.estimate() == EstimateWithError(0.1, 0.0, 2500)
    assert Moments.of(np.array([2.5])).estimate() == EstimateWithError(2.5, 0.0, 1)
    assert Moments(0, 0.0, 0.0).estimate().se == 0.0


@pytest.mark.parametrize("n", SIZES)
def test_wiener_hopf_kappa_matches_whole_batch(n):
    a_values = (0.5, 1.0, 2.0)
    rep = tr.wiener_hopf_check(P3, a_values, n, _pol(n))
    batch = pg.sample_ladder_jumps(P3, n, _pol(n).substream("kappa"), cap=tr.WH_LADDER_CAP)
    assert rep.censored_mass == batch.censored_mass and rep.n_paths == n
    for row, a in zip(rep.details, a_values):
        ref = reference.kappa_from_ladder(P3, batch, a, 0.0)
        assert row["kappa"] == pytest.approx(ref.value, rel=1e-13, abs=0)


def _same_measure(got, ref):
    assert got.axes == ref.axes
    assert np.array_equal(got.mass, ref.mass)
    assert got.excluded_mass == ref.excluded_mass


@pytest.mark.parametrize("n", SIZES)
def test_estimate_p_counts_equal_whole_batch(n):
    levels = [0.45, 0.25, 1.3]
    got, mon = pg.estimate_p(P1, 0.5, levels, n, _pol(n))
    ref, ref_mon = reference.creep_estimates(P1, 0.5, levels, n, _pol(n))
    assert got == ref and mon == ref_mon
    assert all(e.n == n for e in got)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("spec", [P1, P2, P3], ids=["P1", "P2", "P3"])
def test_amicale_mass_equals_whole_batch(spec, n):
    rep = lc.check_amicale(spec, n, _pol(n))
    lattice = lc.amicale_route(spec) == "lattice"
    cap = lc.AMICALE_S_EDGES[-1] + 1.0 if lattice else lc.AMICALE_S_EDGES[-1] * 10
    axes = rep.measures[0].axes if rep.measures else None
    ref = reference.ladder_histogram(spec, n, _pol(n), axes, cap)
    assert rep.censored_mass == ref.censored and rep.n_paths == n
    if axes is not None:
        _same_measure(rep.measures[0], ref.emp)
    else:
        assert rep.details[0]["x_pos_mass"] == ref.x_pos
    if not lattice:
        assert rep.lhs == spec.rate * ref.creep


@pytest.mark.parametrize("n", SIZES)
def test_alpha_cdf_equals_whole_batch(n):
    rep = lc.check_alpha_embedding(P3, n, _pol(n))
    s_grid = tuple(np.arange(0.5, 12.5, 0.5))
    ref = reference.alpha_cdf(P3, n, _pol(n), s_grid, lc.ALPHA_V_MAX, lc.ALPHA_X_MAX)
    assert np.array_equal(rep.measures[0], ref)


@pytest.mark.parametrize("n", SIZES)
def test_lattice_quintuple_equals_whole_batch(n):
    cap = lc.QUINTUPLE_LATTICE_MIN_CAP
    rep = lc.check_quintuple(P3, 2.0, n, _pol(n), cap=cap)
    ref = reference.quintuple_histogram(P3, 2.0, cap, n, _pol(n), rep.measures[0].axes)
    _same_measure(rep.measures[0], ref.emp)
    assert rep.censored_mass == ref.censored and rep.monitors == ref.monitors


@pytest.mark.parametrize("n", SIZES)
def test_creeping_quintuple_equals_whole_batch(n):
    rep = lc.check_quintuple(P1, 0.5, n, _pol(n))
    t_cut = lc.QUINTUPLE_CREEPING_EDGES[-2]
    ref = reference.quintuple_histogram(P1, 0.5, 200.0, n, _pol(n), rep.measures[0].axes,
                                        t_cut=t_cut)
    _same_measure(rep.measures[0], ref.emp)
    d = rep.details[0]
    assert d["creep_mass"] == ref.creep and d["censored"] == ref.censored
    assert rep.censored_mass == ref.censored and rep.monitors == ref.monitors


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("spec, s_cap, t_cut", [
    (B1, float("inf"), lc.QUADRUPLE_T_EDGES[-2]),
    (LATTICE_Y, float("inf"), float("inf")),
], ids=["B1", "lattice-y"])
def test_quadruple_equals_whole_batch(spec, s_cap, t_cut, n):
    rep = lc.check_quadruple(spec, 1.5, n, _pol(n))
    ref = reference.quadruple_histogram(spec, 1.5, n, _pol(n), rep.measures[0].axes,
                                        s_cap=s_cap, t_cut=t_cut)
    _same_measure(rep.measures[0], ref.emp)
    d = rep.details[0]
    assert d["killed_mass"] == ref.killed and d["creep_mass_emp"] == ref.creep
    assert rep.censored_mass == ref.censored and rep.monitors == ref.monitors
