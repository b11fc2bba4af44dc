"""Tests for the scenario runner and CLI: config handling, report files,
determinism, and parallel/serial equivalence."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

import quasidiff
from quasidiff import certificates as cert_mod
from quasidiff.cli import main, reference_config_path
from quasidiff.core import OperatorSet
from quasidiff.fields import make_map
from quasidiff.scenarios import ConfigError, Scenario, load_config, \
    run_scenario, run_scenarios

GOLDEN_SUMMARY = Path(__file__).parent / "golden" / "reference_summary.csv"
GOLDEN_REPORTS = sorted(
    (Path(__file__).parent / "golden" / "reference").glob("*.json"))
GOLDEN_SEED3_SUMMARY = Path(__file__).parent / "golden" / \
    "reference_seed3_summary.csv"
GOLDEN_SEED3_REPORTS = sorted(
    (Path(__file__).parent / "golden" / "reference_seed3").glob("*.json"))


def write_config(path, scenarios):
    path.write_text(json.dumps({"scenarios": scenarios}))


SMALL_SUITE = [
    {"name": "cert", "kind": "CertificateVerify", "seed": 1,
     "params": {"points_per_delta": 50}},
    {"name": "cones", "kind": "ConeDuality", "seed": 2,
     "params": {"pairs": 40}},
    {"name": "probe", "kind": "OpenMappingProbe", "seed": 3,
     "params": {"map": "fold_sum", "x_bar": [0.0, 0.0], "y_bar": [0.0],
                "lambda_generators": [[[1.0, -1.0]], [[1.0, 1.0]]],
                "a": 0.1, "beta": 2.0, "target_grid": 5,
                "domain_samples": 4000}},
]


class TestConfig:
    def test_duplicate_names_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, [SMALL_SUITE[0], SMALL_SUITE[0]])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_bad_json_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_entry_key_rejected(self, tmp_path):
        # tolerances was a second source for a runner's tol
        entry = dict(SMALL_SUITE[0], tolerances={"hausdorff": 1.0})
        with pytest.raises(ConfigError, match="tolerances"):
            Scenario.from_jsonable(entry)
        cfg = tmp_path / "c.json"
        write_config(cfg, [entry])
        with pytest.raises(ConfigError):
            load_config(cfg)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_nonpositive_pairs_rejected(self, pairs):
        with pytest.raises(ConfigError, match="pairs"):
            run_scenario(Scenario("x", "ConeDuality", {"pairs": pairs}))

    def test_misspelt_expect_rejected(self, tmp_path):
        # "pas" used to read as an expected failure: FAIL at full coverage
        probe = dict(SMALL_SUITE[2], params=dict(SMALL_SUITE[2]["params"],
                                                 expect="pas"))
        with pytest.raises(ConfigError, match="'pas'"):
            run_scenario(Scenario.from_jsonable(probe))
        cfg = tmp_path / "c.json"
        write_config(cfg, [probe])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_unknown_kind_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_scenario(Scenario("x", "NoSuchKind"))

    @pytest.mark.parametrize("kind, params, key", [
        # a misspelt grid would fall back to the default grid
        ("CertificateVerify",
         {"lambda_generators": [[[0.5]]], "delta_grids": []}, "delta_grids"),
        # the verifier always checks abs1d
        ("CertificateVerify",
         {"lambda_generators": [[[0.5]]], "map": "fold_sum"}, "map"),
        ("ClarkeEstimate", {"map": "abs1d"}, "expected_generators"),
        ("BracketConvergence", {"mode": "sideways"}, "sideways"),
        # eps belongs to the nonsmooth mode
        ("BracketConvergence",
         {"A": [[0.0]], "B": [[0.0]], "q": [0.0], "eps": 1e-4}, "eps"),
        ("ConeDuality", {"pairs": 40, "seed": 3}, "seed"),
        # the domain is R^len(x_bar), so a second source could disagree
        ("OpenMappingProbe",
         dict(SMALL_SUITE[2]["params"], domain_dimension=2),
         "domain_dimension"),
    ])
    def test_params_bound_before_any_run(self, tmp_path, kind, params, key):
        cfg = tmp_path / "c.json"
        write_config(cfg, [SMALL_SUITE[1],
                           {"name": "bad", "kind": kind, "params": params}])
        with pytest.raises(ConfigError, match=f"'bad'.*{key}"):
            load_config(cfg)
        with pytest.raises(ConfigError, match=key):
            run_scenario(Scenario("bad", kind, params))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_catalog_key_named(self):
        with pytest.raises(ConfigError) as err:
            run_scenario(Scenario("x", "CertificateVerify",
                                  {"certificate": "mystery"}))
        assert "mystery" in str(err.value)


class TestRunScenarios:
    def test_small_suite_passes(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, SMALL_SUITE)
        status = run_scenarios(cfg, tmp_path / "out")
        assert status == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert summary.count("PASS") == 3
        for sc in SMALL_SUITE:
            report = json.loads(
                (tmp_path / "out" / f"{sc['name']}.json").read_text())
            assert report["verdict"] == "PASS"

    def test_failing_scenario_nonzero_exit(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, [{
            "name": "bad", "kind": "CertificateVerify", "seed": 1,
            "params": {"lambda_generators": [[[-0.5]], [[1.0]]],
                       "points_per_delta": 50}}])
        status = run_scenarios(cfg, tmp_path / "out")
        assert status == 1
        report = json.loads((tmp_path / "out" / "bad.json").read_text())
        assert report["verdict"] == "FAIL"
        assert report["report"]["worst_violations"]

    def test_runtime_error_captured_as_failed(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, [
            {"name": "boom", "kind": "ClarkeEstimate", "seed": 1,
             "params": {"map": "abs1d", "x_bar": [0.0], "radius": 1e-12,
                        "samples": 10,
                        "expected_generators": [[[1.0]]]}},
            SMALL_SUITE[1]])
        status = run_scenarios(cfg, tmp_path / "out")
        assert status == 1  # FAILED scenario, but the run completed
        report = json.loads((tmp_path / "out" / "boom.json").read_text())
        assert report["verdict"] == "FAILED"
        assert "error" in report["report"]

    def test_probe_domain_read_off_x_bar(self):
        params = dict(SMALL_SUITE[2]["params"], x_bar=[0.0, 0.0, 0.0],
                      lambda_generators=[[[1.0, -1.0, 0.0]],
                                         [[1.0, 1.0, 0.0]]])
        result = run_scenario(Scenario("probe", "OpenMappingProbe", params))
        assert result.verdict == "PASS"
        assert result.metric_value == 1.0

    def test_empty_domain_sample_named(self):
        params = dict(SMALL_SUITE[2]["params"], domain_samples=0)
        result = run_scenario(Scenario("probe", "OpenMappingProbe", params))
        assert result.verdict == "FAILED"
        # refused before sampling, naming the count
        assert "domain_samples must be a positive integer, got 0" in \
            result.report["error"]

    def test_result_is_frozen(self):
        result = run_scenario(Scenario(**SMALL_SUITE[1]))
        with pytest.raises(FrozenInstanceError):
            result.verdict = "FAIL"

    def test_empty_scenario_list(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, [])
        assert run_scenarios(cfg, tmp_path / "out") == 0
        assert (tmp_path / "out" / "summary.csv").read_text().strip() \
            == "scenario,kind,verdict,metric_name,metric_value"

    def test_violations_metric_counts_every_violation(self):
        # the metric read the ranked list, which is cut at 20
        lam = [[[-0.5]], [[1.0]]]
        result = run_scenario(Scenario("x", "CertificateVerify",
                                       {"lambda_generators": lam}, seed=0))
        cert = replace(cert_mod.absvalue_qdq(), lam=OperatorSet.from_matrices(
            lam, convex_closure=True))
        report = cert_mod.verify_certificate(
            make_map("abs1d"), cert, cert_mod.DEFAULT_DELTA_GRID, 200, seed=0)
        assert len(report.worst_violations) == 20
        assert result.metric_value == len(report.violations) > 20

    def test_filter_selecting_nothing_refused(self, tmp_path):
        # an empty selection wrote a header-only summary and exited 0
        cfg = tmp_path / "c.json"
        write_config(cfg, SMALL_SUITE)
        with pytest.raises(ConfigError, match="nomatch"):
            run_scenarios(cfg, tmp_path / "out", name_filter="nomatch")
        assert not (tmp_path / "out" / "summary.csv").exists()
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--filter", "nomatch"]) == 2

    def test_filter_and_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, SMALL_SUITE)
        run_scenarios(cfg, tmp_path / "out", name_filter="cones",
                      seed_override=9)
        files = sorted(p.name for p in (tmp_path / "out").glob("*.json"))
        assert files == ["cones.json"]


class TestDeterminism:
    def test_summary_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, SMALL_SUITE)
        run_scenarios(cfg, tmp_path / "a")
        run_scenarios(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() \
            == (tmp_path / "b" / "summary.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, SMALL_SUITE)
        run_scenarios(cfg, tmp_path / "a", parallel=False)
        run_scenarios(cfg, tmp_path / "b", parallel=True)
        assert (tmp_path / "a" / "summary.csv").read_bytes() \
            == (tmp_path / "b" / "summary.csv").read_bytes()
        for name in ("cert", "cones", "probe"):
            assert (tmp_path / "a" / f"{name}.json").read_bytes() \
                == (tmp_path / "b" / f"{name}.json").read_bytes()


class TestEntryPoint:
    def test_main_runs_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, [SMALL_SUITE[1]])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_main_config_error_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{nope")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_reference_config_exists(self):
        cfg = reference_config_path()
        scenarios = load_config(cfg)
        kinds = {s.kind for s in scenarios}
        assert kinds == {"CertificateVerify", "ConeDuality", "ClarkeEstimate",
                         "BracketConvergence", "OpenMappingProbe",
                         "SeparationFixture"}


class TestReferenceGolden:
    def test_summary_matches_golden(self, tmp_path):
        """The reference suite's summary is byte-identical to the committed
        one; labels, verdicts and values are compared first, so that a
        mismatch names its scenario."""
        assert main(["run", "reference", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            got = list(csv.DictReader(fh))
        with open(GOLDEN_SUMMARY, newline="") as fh:
            want = list(csv.DictReader(fh))
        labels = ("scenario", "kind", "verdict", "metric_name")
        assert [[r[k] for k in labels] for r in got] == \
            [[r[k] for k in labels] for r in want]
        for g, w in zip(got, want):
            assert float(g["metric_value"]) == pytest.approx(
                float(w["metric_value"]), abs=1e-12, rel=1e-9), g["scenario"]
        assert (tmp_path / "summary.csv").read_bytes() == \
            GOLDEN_SUMMARY.read_bytes()

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "parallel"])
    def test_reports_match_golden(self, tmp_path, parallel):
        """Every report JSON of the reference suite is byte-identical to
        the committed one.  ``summary.csv`` rounds its values to 12 digits;
        the reports carry every generator and margin at full precision, so
        a drift in the last bit shows here."""
        argv = ["run", "reference", "--out", str(tmp_path)]
        assert main(argv + ["--parallel"] if parallel else argv) == 0
        assert len(GOLDEN_REPORTS) == 7
        assert sorted(p.name for p in tmp_path.glob("*.json")) == \
            [p.name for p in GOLDEN_REPORTS]
        for golden in GOLDEN_REPORTS:
            assert (tmp_path / golden.name).read_bytes() == \
                golden.read_bytes(), golden.name

    def test_seed_override_matches_golden(self, tmp_path):
        """At ``--seed-override 3`` the summary and every report are
        byte-identical to the committed ones, so a bit change in the
        estimators at a second seed shows too."""
        assert main(["run", "reference", "--seed-override", "3",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "summary.csv").read_bytes() == \
            GOLDEN_SEED3_SUMMARY.read_bytes()
        assert [p.name for p in GOLDEN_SEED3_REPORTS] == \
            [p.name for p in GOLDEN_REPORTS]
        for golden in GOLDEN_SEED3_REPORTS:
            assert (tmp_path / golden.name).read_bytes() == \
                golden.read_bytes(), golden.name


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    """``scipy.stats`` takes about half a second and 20 MB to import, and
    nothing in the package uses it: the mollifier builds its scrambled
    Halton nodes itself.  So neither importing the package, nor a
    mollified commutator flow, nor ``quasidiff run reference`` loads it."""
    src = Path(quasidiff.__file__).resolve().parent.parent
    code = "\n".join([
        "import sys",
        "import quasidiff",
        "loaded = ['scipy.stats' in sys.modules]",
        "from quasidiff.cli import main",
        "from quasidiff.fields import abs_shear_field, unit_x_field",
        "from quasidiff.nonsmooth import mollified_commutator_flow",
        "mollified_commutator_flow(unit_x_field(), abs_shear_field(),",
        "                          [0.0, 0.3], 1e-2, quadrature_points=64)",
        "loaded.append('scipy.stats' in sys.modules)",
        f"assert main(['run', 'reference', '--out', {str(tmp_path)!r}]) == 0",
        "loaded.append('scipy.stats' in sys.modules)",
        "print(loaded)"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    # after the import, the flow and the run
    assert done.stdout.splitlines()[-1] == "[False, False, False]"
