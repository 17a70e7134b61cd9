import math
import os
import subprocess
import sys

import pytest

import levyladder
from levyladder.results import CHECK_FAIL_RATE, CheckReport, row_budgets, sidak_z, verdict

HERE = os.path.dirname(os.path.abspath(__file__))


class TestVerdict:
    def test_one_comparison_is_held_to_the_check_rate(self):
        assert sidak_z(1) == pytest.approx(3.8906, abs=5e-5)
        assert sidak_z(0) == sidak_z(1)
        assert sidak_z(3) == pytest.approx(4.1494, abs=5e-5)

    def test_one_comparison_is_three_se_exactly(self):
        # an explicit rate overrides the default: one comparison at the rate
        # of 3 SE is 3 SE, to rounding
        assert sidak_z(1, math.erfc(3.0 / math.sqrt(2.0))) == pytest.approx(3.0, rel=1e-12)

    def test_sidak_z_grows_with_the_number_of_comparisons(self):
        zs = [sidak_z(m) for m in (1, 2, 3, 10, 41, 1000)]
        assert zs == sorted(zs) and len(set(zs)) == len(zs)
        # m comparisons at z(m) fail together at CHECK_FAIL_RATE
        for m in (1, 2, 41, 1000):
            each = math.erfc(sidak_z(m) / math.sqrt(2.0))
            assert 1.0 - (1.0 - each) ** m == pytest.approx(CHECK_FAIL_RATE, rel=1e-9)

    def test_budget_adds_terms_in_order_after_the_se_term(self):
        se, slack, bias, tail = 0.0123, 0.02 * 0.7, 1.1e-4, 3.3e-7
        [budget] = row_budgets([(0.0, se, slack, bias, tail)])
        assert budget == sidak_z(1) * se + slack + bias + tail

    def test_only_rows_with_an_se_count(self):
        rows = [(0.0, 0.1, 0.5), (0.0, 0.0, 0.02), (0.0, 0.2)]
        assert row_budgets(rows) == [sidak_z(2) * 0.1 + 0.5, 0.02, sidak_z(2) * 0.2]

    def test_reports_the_row_with_the_largest_ratio(self):
        rows = [(0.01, 0.0, 0.02), (0.009, 0.0, 0.01), (0.0, 0.0, 0.0)]
        assert verdict(rows) == (0.009, 0.01)
        assert verdict(rows + [(1e-12, 0.0)]) == (1e-12, 0.0)

    def test_nan_gap_fails(self):
        distance, budget = verdict([(0.001, 0.0, 0.01), (math.nan, 0.0, 0.01)])
        assert math.isnan(distance) and not distance <= budget

    def test_passed_is_distance_within_budget(self):
        rep = CheckReport(check="c", fixture="f", distance=0.5, budget=0.5)
        assert rep.passed and rep.summary_row()[-1] == "PASS"
        rep.distance = 0.6
        assert not rep.passed and rep.line().endswith("FAIL")
        assert not CheckReport(check="c", fixture="f").passed  # nan distance
        with pytest.raises(TypeError):
            CheckReport(check="c", fixture="f", passed=True)


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(levyladder.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_import_does_not_load_scipy():
    assert _fresh("import sys, levyladder; "
                  "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
                  ) == "False"


def test_import_does_not_load_concurrent_futures():
    # chunks run serially; numpy alone does not load it
    assert _fresh("import sys, levyladder; print('concurrent.futures' in sys.modules)") == "False"


def test_drift_lattice_does_not_load_numpy_ma():
    # np.unique imports numpy.ma, about 10 ms on the first call of a run
    assert _fresh("import sys, levyladder as ll; lat = ll.rw_ladder.DriftLattice(ll.P1); "
                  "lat.occupation([0.5, float('inf')], [0.25, 0.5]); "
                  "lat.dual([0.0, 0.5, float('inf')], [0.0, 0.5]); "
                  "print('numpy.ma' in sys.modules)") == "False"


def test_dual_ladder_measure_does_not_load_numpy_ma():
    # its np.unique asks for counts, which skips the np.ma.is_masked test
    assert _fresh(f"import sys; sys.path.insert(0, {HERE!r}); "
                  "import levyladder as ll, reference; from levyladder.rng import RngPolicy; "
                  "reference.dual_ladder_measure(ll.P1, [0, 0.5, 2], [0, 0.5, 2], 2000, "
                  "RngPolicy(1)); print('numpy.ma' in sys.modules)") == "False"
