import json
import os

import pytest

from levyladder.fixtures import ConfigError
from levyladder.results import CheckReport
from levyladder import passage, renewal, runner


BASE = {
    "seed": 42,
    "n": 3000,
    "chunk_size": 1024,
    "checks": [
        {"name": "p-estimate", "fixture": "P1", "t": 0.3,
         "u": [0.2, 1.1, 1.5, 1.8, 2.5]},
        {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "delta": 0.005, "n": 20000},
        {"name": "V-grid", "fixture": "B1", "t": [0.5, 1.0], "u": [0.5, 1.0]},
        {"name": "resolvent", "fixture": "S1", "q": 1.0, "u": 0.5, "n": 20000},
    ],
}


def _cfg(**over):
    raw = json.loads(json.dumps(BASE))
    raw.update(over)
    return raw


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            runner.ExperimentConfig(_cfg(bogus=1))

    def test_unknown_check_key_names_path(self):
        raw = _cfg()
        raw["checks"][0]["typo"] = 1
        with pytest.raises(ConfigError, match=r"checks\[0\]"):
            runner.ExperimentConfig(raw)

    def test_unknown_check_name(self):
        raw = _cfg()
        raw["checks"][0]["name"] = "nonsense"
        with pytest.raises(ConfigError, match="unknown check"):
            runner.ExperimentConfig(raw)

    def test_fixture_kind_mismatch(self):
        raw = _cfg()
        raw["checks"] = [{"name": "quadruple", "fixture": "P1", "u": 1.0}]
        with pytest.raises(ConfigError, match="bivariate"):
            runner.ExperimentConfig(raw)

    def test_generic_branch_on_derivative_manifold_is_named(self):
        raw = _cfg()
        raw["checks"] = [{"name": "slfi", "fixture": "B1", "mu": 1.0, "rho": 2.0,
                          "ell": 1.0 + 1e-10, "nu": 1.0, "theta": 1.0}]
        with pytest.raises(ConfigError, match="derivative branch"):
            runner.ExperimentConfig(raw)

    @pytest.mark.parametrize("fixture, over, why", [
        ("B1", {"mu": 0.0}, "mu must be positive"),
        ("B1", {"mu": -1.0}, "mu must be positive"),
        ("B1", {"rho": -1.0}, "rho must be nonnegative"),
        ("B1", {"ell": -0.5}, "ell must be nonnegative"),
        ("B1", {"nu": -1.0}, "nu must be nonnegative"),
        ("B1", {"theta": -1.0}, "theta must be nonnegative"),
        ("FLAT", {}, "never moves"),
        ("P2", {"mu": 0.0}, "mu must be positive"),
        ("P2", {"rho": -1.0}, "rho must be nonnegative"),
        ("P2", {"nu": -2.0}, "nu must be nonnegative"),
        ("DOWN", {"nu": 0.0}, "no path would stop"),
        ("DOWN", {"theta": 0.0}, "no path would stop"),
    ])
    def test_inadmissible_slfi_parameters_are_config_errors(self, tmp_path, capsys, fixture,
                                                           over, why):
        # Y never moves and nothing kills: d_y = 0, q = 0, one Z-only atom
        flat = {"kind": "bivariate", "d_z": 1.0, "d_y": 0.0, "q": 0.0, "atoms": [[1.0, 0.0, 0.5]]}
        # creeps, but its mean is -1: with nu or theta 0 no path stops
        down = {"kind": "levy", "drift": 1.0, "rate": 2.0,
                "jumps": {"variant": "exponential", "rate": 1.0, "sign": -1}}
        # P2 and DOWN are Levy fixtures, whose transform check is slfi-fluct
        name = "slfi" if fixture in ("B1", "FLAT") else "slfi-fluct"
        entry = {"name": name, "fixture": fixture, "mu": 1.0, "rho": 2.0, "ell": 0.0,
                 "nu": 1.0, "theta": 1.0, **over}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(fixtures={"FLAT": flat, "DOWN": down},
                                            checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "checks[0]: inadmissible transform parameters" in err and why in err
        assert not (tmp_path / "o").exists()

    # Each of these raised inside its check (division by zero, a math domain
    # error, a ValueError) or gave a NaN or a PASS on a forward quotient.
    @pytest.mark.parametrize("entry, key", [
        ({"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "delta": 0}, "delta"),
        ({"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.45, "delta": -0.005}, "delta"),
        ({"name": "quintuple", "fixture": "P1", "u": 0.5, "mesh": 0}, "mesh"),
        ({"name": "quadruple", "fixture": "B1", "u": 1.5, "mesh": 0}, "mesh"),
        ({"name": "amicale", "fixture": "P1", "mesh": -1}, "mesh"),
        ({"name": "wiener-hopf", "fixture": "P3", "a": [0]}, "a"),
        ({"name": "p-estimate", "fixture": "P1", "t": 0.3, "u": -1}, "u"),
        ({"name": "resolvent", "fixture": "S1", "u": -0.5}, "u"),
        ({"name": "subpint", "fixture": "B1", "t": 0, "u": 0.9}, "t"),
        ({"name": "resolvent", "fixture": "S1", "u": 0.5, "q": 0}, "q"),
        ({"name": "ct1", "fixture": "P1", "t": True, "u": 0.25}, "t"),
        ({"name": "wiener-hopf", "fixture": "P3", "a": [0.5, True]}, "a"),
        ({"name": "V-grid", "fixture": "B1", "t": [0.5], "u": [-1.0]}, "u"),
        ({"name": "V-grid", "fixture": "B1", "t": True, "u": [0.5]}, "t"),
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, entry, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"checks[0].{key}: must be finite and > 0" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # Each of these raised inside its check, or ran on a default in place
    # of the value given and could PASS.
    @pytest.mark.parametrize("entry, key, why", [
        ({"name": "quintuple", "fixture": "P3", "u": 1.5}, "u", "multiple of the lattice step"),
        ({"name": "quintuple", "fixture": "P3", "u": 2.0, "cap": 100}, "cap", "must be >= 256"),
        ({"name": "alpha", "fixture": "P3", "s_max": 0.2}, "s_max", "must be >= 0.5"),
    ])
    def test_value_the_check_cannot_use_is_a_config_error(self, tmp_path, capsys, entry, key,
                                                          why):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"checks[0].{key}: " in err and why in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_creeping_quintuple_refuses_a_negative_mean_before_any_csv(self, tmp_path):
        # creeps, but its mean is 0.5 + 2 (-1/2) = -1/2: the creeping route's
        # occupation table has no unbounded horizon, which once raised at run
        # time, after the first check had written its CSV
        down = {"kind": "levy", "drift": 0.5, "rate": 2,
                "jumps": {"variant": "discrete", "atoms": [[-2, "1/2"], [1, "1/2"]]}}
        ct1 = {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "n": 2000}
        out = tmp_path / "o"
        raw = _cfg(out=str(out), fixtures={"DOWN": down}, checks=[
            ct1, {"name": "quintuple", "fixture": "DOWN", "u": 0.5}, ct1])
        with pytest.raises(ConfigError, match=r"checks\[1\]\.fixture: .*positive mean, got -0.5"):
            runner.run(raw)
        assert not out.exists()

    def test_values_at_the_limits_are_accepted(self):
        # the lattice rules bind only the exact route: P1 creeps, so any
        # positive level and cap are fine there
        runner.ExperimentConfig(_cfg(checks=[
            {"name": "quintuple", "fixture": "P1", "u": 0.45, "cap": 100},
            {"name": "quintuple", "fixture": "P3", "u": 3.0, "cap": 256},
            {"name": "alpha", "fixture": "P3", "s_max": 0.5},
        ]))

    def test_inline_fixture(self):
        raw = _cfg(fixtures={
            "X": {"kind": "levy", "drift": 1.0, "rate": 1.0,
                  "jumps": {"variant": "exponential", "rate": 1.0, "sign": -1}}
        })
        raw["checks"] = [{"name": "amicale", "fixture": "X"}]
        cfg = runner.ExperimentConfig(raw)
        assert "X" in cfg.fixtures

    def test_inline_fixture_schema_error_names_key(self):
        raw = _cfg(fixtures={"X": {"kind": "levy", "drift": 1.0, "rate": 1.0,
                                   "jumps": {"variant": "wat"}}})
        with pytest.raises(ConfigError, match="fixtures.X.jumps"):
            runner.ExperimentConfig(raw)


# A shipped fixture of each kind, and the kind that is not it.
KIND_FIXTURE = {"Levy": "P1", "bivariate": "B1"}
OTHER_KIND = {"Levy": "bivariate", "bivariate": "Levy"}

# The keys each check cannot run without.
REQUIRED = {"p-estimate": ("t", "u"), "V-grid": ("t", "u"), "ct1": ("t", "u"),
            "subpint": ("t", "u"), "quintuple": ("u",), "quadruple": ("u",),
            "resolvent": ("u",)}


def _entry(name, fixture, **keys):
    """A config entry for check ``name`` that sets its required keys."""
    return {"name": name, "fixture": fixture, **{k: 0.5 for k in REQUIRED.get(name, ())},
            **keys}


class TestCheckTable:
    @pytest.mark.parametrize("name", sorted(runner.CHECKS))
    def test_unknown_key_names_check_path(self, name):
        fixture = KIND_FIXTURE[runner.CHECKS[name].kind or "Levy"]
        raw = _cfg(checks=[{"name": name, "fixture": fixture, "typo": 1}])
        with pytest.raises(ConfigError, match=r"checks\[0\]: unknown keys \['typo'\]"):
            runner.ExperimentConfig(raw)

    @pytest.mark.parametrize("name", sorted(runner.CHECKS))
    def test_fixture_kind_is_enforced(self, name):
        kind = runner.CHECKS[name].kind
        if kind is None:  # takes either kind
            for fixture in KIND_FIXTURE.values():
                runner.ExperimentConfig(_cfg(checks=[_entry(name, fixture)]))
            return
        raw = _cfg(checks=[{"name": name, "fixture": KIND_FIXTURE[OTHER_KIND[kind]]}])
        with pytest.raises(ConfigError, match=rf"checks\[0\]: {name} needs a {kind} fixture"):
            runner.ExperimentConfig(raw)

    @pytest.mark.parametrize("entry, key", [
        ({"name": "V-grid", "fixture": "P1", "t": [0.5], "u": [0.5], "route": "bogus"}, "route"),
        ({"name": "V-grid", "fixture": "B1", "t": [0.5], "u": [0.5], "route": "min"}, "route"),
        ({"name": "quadruple", "fixture": "B1", "u": 1.5, "delta": 0.015}, "delta"),
        ({"name": "slfi", "fixture": "B1", "u_nodes": 40}, "u_nodes"),
        ({"name": "resolvent", "fixture": "S1", "u": 0.5, "delta": 0.005}, "delta"),
        ({"name": "quintuple", "fixture": "P1", "u": 0.5, "delta": 0.005}, "delta"),
        ({"name": "slfi-fluct", "fixture": "P2", "u_nodes": 40}, "u_nodes"),
        ({"name": "slfi-fluct", "fixture": "P2", "cap": 60.0}, "cap"),
        ({"workers": 1}, "workers"),  # a top-level key: no check name
    ])
    def test_removed_keys_are_config_errors(self, tmp_path, capsys, entry, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry]) if "name" in entry else _cfg(**entry)))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # Each of these passed validation, then raised inside its check.
    @pytest.mark.parametrize("entry, why", [
        ({"name": "resolvent", "fixture": "P1", "u": 0.5}, "no jumps or exponential up-jumps"),
        ({"name": "resolvent", "fixture": "P2", "u": 0.5}, "no jumps or exponential up-jumps"),
        ({"name": "resolvent", "fixture": "P3", "u": 0.5}, "positive drift"),
        ({"name": "wiener-hopf", "fixture": "P1"}, "zero-drift compound Poisson"),
        ({"name": "slfi-fluct", "fixture": "P3"}, "creeping fixture"),
        ({"name": "alpha", "fixture": "P1"}, "zero-drift compound Poisson"),
        ({"name": "quintuple", "fixture": "P2", "u": 0.5}, "integer jump atoms"),
        ({"name": "quintuple", "fixture": "S1", "u": 0.5}, "integer jump atoms"),
        # the four checks of the creeping theorem need an exact side
        *[({"name": name, "fixture": fixture, "t": 0.5, "u": 0.4}, "positive drift and an atomic")
          for name in ("ct1", "p-estimate", "subpint", "V-grid") for fixture in ("P2", "S1")],
        ({"name": "subpint", "fixture": "P3", "t": 0.5, "u": 0.4}, "positive drift"),
    ])
    def test_fixture_the_check_cannot_take_is_a_config_error(self, tmp_path, capsys, entry,
                                                             why):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        head = f"checks[0].fixture: {entry['name']} cannot take {entry['fixture']}: "
        assert head in err and why in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # amicale refuses at config time a drifting fixture whose up-jump atoms
    # lie on no lattice its exact dual route can hold, and one that neither
    # creeps nor is compound Poisson (that one raised inside the check)
    @pytest.mark.parametrize("fixture, why", [
        ({"kind": "levy", "drift": 1.0, "rate": 1.0, "jumps": {
            "variant": "discrete", "atoms": [[1.0, 0.5], [-0.3, 0.5]]}}, "lattice step is too fine"),
        ({"kind": "levy", "drift": -1.0, "rate": 1.0, "jumps": {
            "variant": "exponential", "rate": 1.0}}, "compound Poisson or creeping"),
    ])
    def test_amicale_fixture_it_cannot_take_is_a_config_error(self, tmp_path, capsys, fixture,
                                                              why):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(fixtures={"X": fixture},
                                            checks=[{"name": "amicale", "fixture": "X"}])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "checks[0].fixture: amicale cannot take X: " in err and why in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    # an up-jump pair that the mesh cannot align: 1 and 1.5 are 0.5 apart,
    # and the default mesh (0.1) does divide that; the lattice route of the
    # same jumps without drift reads no mesh
    @pytest.mark.parametrize("mesh", [0.2, 0.3])
    def test_amicale_mesh_that_cannot_align_the_up_atoms_is_a_config_error(
            self, tmp_path, capsys, mesh):
        fixture = {"kind": "levy", "drift": 1.0, "rate": 1.0, "jumps": {
            "variant": "discrete", "atoms": [[1.0, 0.25], [1.5, 0.25], [-1.0, 0.5]]}}
        entry = {"name": "amicale", "fixture": "X", "mesh": mesh}
        runner.ExperimentConfig(_cfg(fixtures={"X": fixture},
                                     checks=[{"name": "amicale", "fixture": "X"}]))
        runner.ExperimentConfig(_cfg(fixtures={"X": {**fixture, "drift": 0.0}}, checks=[entry]))
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(fixtures={"X": fixture}, checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "checks[0].mesh: " in err and "up-jump sizes [1.0, 1.5]" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_ct1_delta_is_accepted_and_ignored(self, tmp_path):
        # configs written for the retired difference quotient still run
        blobs = []
        for tag, extra in (("with", {"delta": 0.005}), ("without", {})):
            out = tmp_path / tag
            entry = {"name": "ct1", "fixture": "P1", "t": 0.5, "u": 0.25, "n": 2000, **extra}
            runner.run(_cfg(out=str(out), checks=[entry]))
            blobs.append([(f, (out / f).read_bytes()) for f in sorted(os.listdir(out))])
        assert blobs[0] == blobs[1]

    def test_required_keys_are_declared(self):
        assert {name: c.required for name, c in runner.CHECKS.items() if c.required} == REQUIRED
        for c in runner.CHECKS.values():
            assert set(c.required) <= set(c.keys)
            assert set(c.positive) <= set(c.keys)

    @pytest.mark.parametrize("name, key", [(n, k) for n in sorted(REQUIRED) for k in REQUIRED[n]])
    def test_missing_required_key_is_a_config_error(self, tmp_path, capsys, name, key):
        entry = _entry(name, KIND_FIXTURE[runner.CHECKS[name].kind or "Levy"])
        del entry[key]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"checks[0].{key}: missing" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, key", [(n, k) for n in sorted(REQUIRED) for k in REQUIRED[n]]
                             + [("wiener-hopf", "a")])
    def test_empty_level_list_is_a_config_error(self, tmp_path, capsys, name, key):
        entry = _entry(name, KIND_FIXTURE[runner.CHECKS[name].kind or "Levy"], **{key: []})
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(checks=[entry])))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"checks[0].{key}: empty list" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_one_entry_adds_a_check(self, tmp_path, monkeypatch):
        def run_dummy(spec, c, n, policy, fixture):
            x = float(c["x"])
            return CheckReport(check="my-dummy", fixture=fixture, params={"x": x, "n": n},
                               lhs=x, rhs=x, distance=0.0, budget=1.0,
                               n_paths=n, details=[{"b": 2.0, "a": x}, {"a": 4.0}],
                               monitors={"dummy_event": 0})

        monkeypatch.setitem(runner.CHECKS, "my-dummy",
                            runner.Check("Levy", ("x",), run_dummy))
        out = tmp_path / "res"
        raw = _cfg(out=str(out), checks=[{"name": "my-dummy", "fixture": "P2", "x": 3}])
        assert runner.run(raw) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 and summary[1].startswith("my-dummy,P2,")
        assert summary[1].endswith(",3.0,3.0,0.0,1.0,PASS")
        assert (out / "check00_my_dummy.csv").read_text() == "a,b\n3.0,2.0\n4.0,\n"
        assert "dummy_event,0,3000" in (out / "monitors.csv").read_text()


class TestRun:
    def test_outputs_and_exit_status(self, tmp_path):
        out = str(tmp_path / "res")
        rc = runner.run(_cfg(out=out))
        assert rc == 0
        files = sorted(os.listdir(out))
        assert "summary.csv" in files and "monitors.csv" in files
        summary = (tmp_path / "res" / "summary.csv").read_text().splitlines()
        assert summary[0] == "check,fixture,params_hash,lhs,rhs,distance,budget,pass"
        assert len(summary) == 1 + len(BASE["checks"])
        assert all(line.endswith("PASS") for line in summary[1:])

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        runner.run(_cfg(out=out1))
        runner.run(_cfg(out=out2))
        for name in sorted(os.listdir(out1)):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name

    def test_seed_changes_results(self, tmp_path):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        runner.run(_cfg(out=out1))
        runner.run(_cfg(out=out2, seed=43))
        assert (open(os.path.join(out1, "check00_p_estimate.csv"), "rb").read()
                != open(os.path.join(out2, "check00_p_estimate.csv"), "rb").read())


class TestMain:
    def test_cli_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg()))
        rc = runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                          "--seed", "42"])
        assert rc == 0
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_cli_workers_flag_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg()))
        with pytest.raises(SystemExit) as exc:
            runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_cfg(bogus=1)))
        assert runner.main(["--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("where, value, key", [
        (None, {"chunk_size": 0}, "config.chunk_size"),
        (None, {"seed": -3}, "config.seed"),
        (None, {"seed": "x"}, "config.seed"),
        (None, {"n": -5}, "config.n"),
        (None, {"n": True}, "config.n"),
        (0, {"n": -5}, "checks[0].n"),
        (None, {"seed": True}, "config.seed"),
        (0, {"n": True}, "checks[0].n"),
        (None, {"chunk_size": True}, "config.chunk_size"),
    ])
    def test_cli_bad_value_exit_code(self, tmp_path, capsys, where, value, key):
        raw = _cfg()
        (raw if where is None else raw["checks"][where]).update(value)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert runner.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_missing_file(self):
        assert runner.main(["--config", "/nonexistent.json"]) == 2


class TestPlotData:
    def test_e2_support_columns_are_exactly_zero(self, tmp_path):
        # p(0.3, u) vanishes exactly for u in (n + 0.3, n + 1]
        out = str(tmp_path / "res")
        runner.run(_cfg(out=out))
        files = runner.report_plotdata(out)
        pfile = [f for f in files if "p_estimate" in f][0]
        rows = runner._read_csv(pfile)
        by_u = {float(r["x"]): float(r["y"]) for r in rows}
        assert by_u[1.5] == 0.0 and by_u[1.8] == 0.0 and by_u[2.5] == 0.0
        assert by_u[0.2] > 0.0 and by_u[1.1] > 0.0

    def test_idempotent_bytes(self, tmp_path):
        out = str(tmp_path / "res")
        runner.run(_cfg(out=out))
        files1 = runner.report_plotdata(out)
        blobs = [open(f, "rb").read() for f in files1]
        files2 = runner.report_plotdata(out)
        assert files1 == files2
        assert [open(f, "rb").read() for f in files2] == blobs

    def test_renamed_columns_keep_plot_bytes(self, tmp_path, monkeypatch):
        # the plot reads the columns the library writes, whatever their names
        blobs = []
        for run in ("as-shipped", "renamed"):
            if run == "renamed":
                monkeypatch.setattr(passage, "P_ESTIMATE_COLUMNS",
                                    ("fx", "t", "level", "prob", "prob_se", "n"))
                monkeypatch.setattr(renewal, "GRID_COLUMNS", ("t", "lvl", "V_mc", "V_se", "prov"))
            out = str(tmp_path / run)
            runner.run(_cfg(out=out))
            blobs.append([open(f, "rb").read() for f in runner.report_plotdata(out)])
        assert len(blobs[0]) == 2 and blobs[0] == blobs[1]

    def test_missing_directory_is_an_error(self):
        with pytest.raises(FileNotFoundError):
            runner.report_plotdata("/no/such/dir")

    def test_no_reshapeable_inputs_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            runner.report_plotdata(str(tmp_path))
