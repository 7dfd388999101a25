"""Property-suite runner and the command-line surface."""

import json

import numpy as np
import pytest

from hyperconvex import SUITE_NAMES, HyperconvexError, Report, ToleranceConfig, run_suite
from hyperconvex import cli, suites


FAST_DIMS = {
    "projection-laws": 4,
    "truncation-lemma": 3,
    "aw-metric": 2,
    "aw-origin-equivalence": 2,
    "gap-oracle": 4,
    "gap-complement": 4,
    "gap-sandwich": 2,
    "flat-charts": 4,
    "convex-charts": 4,
    "independence": 3,
    "simplex-stability": 3,
    "continuity-probes": 2,
}


class TestRunSuite:
    @pytest.mark.parametrize("name", sorted(FAST_DIMS))
    def test_small_runs_pass(self, name):
        report = run_suite(name, FAST_DIMS[name], 4, 20)
        assert report.passed, report.failures[:1]
        assert report.trials == 4
        assert report.suite == name

    def test_all_aggregates(self):
        report = run_suite("all", 2, 2, 9)
        assert report.passed
        assert report.trials == 2 * len(FAST_DIMS)

    def test_deterministic_modulo_runtime(self):
        a = run_suite("gap-oracle", 3, 10, 5).to_dict()
        b = run_suite("gap-oracle", 3, 10, 5).to_dict()
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b

    def test_unknown_suite(self):
        with pytest.raises(HyperconvexError):
            run_suite("nonsense", 2, 1, 0)

    def test_bad_arguments(self):
        with pytest.raises(HyperconvexError):
            run_suite("gap-oracle", 0, 1, 0)
        with pytest.raises(HyperconvexError):
            run_suite("gap-oracle", 2, -1, 0)

    def test_report_shape(self):
        report = run_suite("gap-complement", 3, 3, 1)
        doc = report.to_dict()
        assert set(doc) >= {"suite", "trials", "failures", "inconclusive", "seed", "runtime_ms", "dim", "passed"}
        assert isinstance(doc["runtime_ms"], int)
        assert doc["dim"] == 3
        json.dumps(doc)  # must be serializable as-is

    def test_all_is_a_known_name(self):
        assert set(FAST_DIMS) == set(SUITE_NAMES) - {"all"}


# a geometric tolerance that every trial of these suites breaks, so their
# reports hold real failure records
TINY = ToleranceConfig(tau_geom=1e-300)
FAILING_AT_TINY = ["projection-laws", "gap-complement", "independence", "simplex-stability"]


@pytest.fixture
def every_check_fails(monkeypatch):
    # record every required check as a failure, so that every check's inputs
    # are serialized; no check's control flow reads what require returns
    def require(self, check, residual, threshold, /, **inputs):
        self.fail(check, residual, threshold, **inputs)

    monkeypatch.setattr(suites._Recorder, "require", require)


class TestTrialDriver:
    @pytest.mark.parametrize("trials", [0, 3])
    def test_convex_charts_rejects_dimension_one_before_any_trial(self, trials):
        with pytest.raises(HyperconvexError, match="at least 2"):
            run_suite("convex-charts", 1, trials, 0)

    @pytest.mark.parametrize("name", FAILING_AT_TINY)
    def test_failures_of_fewer_trials_are_a_prefix(self, name):
        short = run_suite(name, 3, 3, 1, TINY).failures
        long = run_suite(name, 3, 5, 1, TINY).failures
        assert 0 < len(short) < len(long)
        assert long[: len(short)] == short
        assert json.loads(json.dumps(long)) == long

    def test_all_tags_each_suites_failures(self, every_check_fails):
        report = run_suite("all", 2, 2, 9)
        names = SUITE_NAMES[:-1]
        parts = [{"suite": name, **f} for name in names for f in run_suite(name, 2, 2, 9).failures]
        assert report.failures == parts
        # gap-sandwich calls only fail, on a real violation
        assert {f["suite"] for f in parts} == set(names) - {"gap-sandwich"}

    def test_every_record_serializes_with_its_inputs(self, every_check_fails):
        for record in run_suite("all", 3, 2, 9).failures:
            assert list(record) == ["suite", "check", "inputs", "residual", "threshold"]
            assert record["inputs"]
            assert json.loads(json.dumps(record)) == record


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def docs(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "a": write("a.json", {"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [10, 0]]}),
        "b": write("b.json", {"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [20, 0]]}),
        "w": write("w.json", {"type": "subspace", "ambient_dim": 2, "basis": [[1, 0]]}),
        "v": write("v.json", {"type": "subspace", "ambient_dim": 2, "basis": [[0.7071067811865476, 0.7071067811865476]]}),
        "omega": write("omega.json", [0, 1]),
        "f": write("f.json", {"type": "flat", "ambient_dim": 2, "base": [0, 3], "basis": [[1, 0]]}),
        "bad": write("bad.json", {"type": "polytope", "ambient_dim": 2}),
    }


class TestDistCommand:
    def test_hausdorff(self, docs, capsys):
        code, out, _ = run_cli(["dist", "--metric", "hausdorff", docs["a"], docs["b"]], capsys)
        assert code == 0
        assert json.loads(out) == 10.0

    def test_aw_worked_value(self, docs, capsys):
        code, out, _ = run_cli(["dist", "--metric", "aw", docs["a"], docs["b"]], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["lo"] <= 1 / 11 <= doc["hi"]
        assert doc["hi"] - doc["lo"] <= 1e-3
        assert doc["certified"] is True

    def test_aw_origin_matches(self, docs, capsys):
        code, out, _ = run_cli(["dist", "--metric", "aw-origin", docs["a"], docs["b"]], capsys)
        assert code == 0
        assert json.loads(out)["lo"] <= 1 / 11

    def test_gap_requires_subspaces(self, docs, capsys):
        code, _, err = run_cli(["dist", "--metric", "gap", docs["a"], docs["b"]], capsys)
        assert code == 2
        assert "error" in err

    def test_gap_value(self, docs, capsys):
        code, out, _ = run_cli(["dist", "--metric", "gap", docs["w"], docs["v"]], capsys)
        assert code == 0
        assert abs(json.loads(out) - np.sin(np.pi / 4)) < 1e-9

    def test_schema_error(self, docs, capsys):
        code, _, err = run_cli(["dist", "--metric", "hausdorff", docs["bad"], docs["b"]], capsys)
        assert code == 2
        assert "points" in err


class TestProjectCommand:
    def test_projection(self, docs, capsys):
        code, out, _ = run_cli(["project", docs["a"], "--point", "14,3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["point"], [10, 0], atol=1e-7)
        assert abs(doc["distance"] - 5.0) < 1e-7

    def test_wrong_width(self, docs, capsys):
        # the width is checked once, by the routine's point check (sets._point)
        code, _, err = run_cli(["project", docs["a"], "--point", "1,2,3"], capsys)
        assert code == 2
        assert err == "error: query point must have shape (2,), not (3,)\n"

    @pytest.mark.parametrize("point", ["1,x", "1,,2", ""])
    def test_bad_token(self, docs, capsys, point):
        code, _, err = run_cli(["project", docs["a"], "--point", point], capsys)
        assert code == 2
        assert err.startswith("error: bad point")

    def test_non_finite_point(self, docs, capsys):
        code, _, err = run_cli(["project", docs["a"], "--point", "1,nan"], capsys)
        assert code == 2
        assert err == "error: query point must be finite\n"


class TestChartCommand:
    def test_flat_forward(self, docs, capsys):
        code, out, _ = run_cli(
            ["chart", "flat", "--w", docs["w"], "--forward", docs["v"], docs["omega"]], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "flat"
        assert np.allclose(doc["base"], [0, 1])

    @pytest.mark.parametrize("kind", ["flat", "convex"])
    def test_wrong_width_offset(self, docs, tmp_path, capsys, kind):
        # the width is checked once, by the chart's point check (sets._point)
        omega = tmp_path / "omega3.json"
        omega.write_text("[0, 1, 0]")
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [1, 0]]}))
        files = [docs["v"], str(omega)] + ([str(body)] if kind == "convex" else [])
        code, _, err = run_cli(["chart", kind, "--w", docs["w"], "--forward", *files], capsys)
        assert code == 2
        assert err == "error: offset must have shape (2,), not (3,)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[0, ", "is not valid JSON"),
            ('["a", 1]', "must hold an array of numbers"),
            ('{"a": 1}', "must hold an array of numbers"),
            ("[[0], [1, 2]]", "must hold an array of numbers"),
        ],
    )
    def test_offset_file_that_holds_no_numbers(self, docs, tmp_path, capsys, text, message):
        omega = tmp_path / "omega.json"
        omega.write_text(text)
        code, _, err = run_cli(["chart", "flat", "--w", docs["w"], "--forward", docs["v"], str(omega)], capsys)
        assert code == 2
        assert message in err

    def test_missing_offset_file(self, docs, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        code, _, err = run_cli(["chart", "flat", "--w", docs["w"], "--forward", docs["v"], missing], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_files_that_are_not_utf8(self, docs, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_bytes(b"\xff\xfe[0, 1]")
        for argv in (
            ["chart", "flat", "--w", docs["w"], "--forward", docs["v"], str(raw)],
            ["chart", "flat", "--w", str(raw), "--forward", docs["v"], docs["omega"]],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chart", "flat", "--w", "a", "--inverse", "f"], "{a} must hold a subspace document"),
            (["chart", "flat", "--w", "w", "--inverse", "a"], "{a} must hold a flat document"),
            (["chart", "convex", "--w", "w", "--inverse", "f"], "{f} must hold a polytope document"),
            (["chart", "flat", "--w", "w", "--forward", "a", "omega"], "{a} must hold a subspace document"),
            (["chart", "convex", "--w", "w", "--forward", "v", "omega", "f"], "{f} must hold a polytope document"),
            (["chart", "convex", "--w", "w", "--forward", "v", "omega"], "takes 3 files, got 2"),
            (["dist", "--metric", "gap", "w", "a"], "{a} must hold a subspace document"),
        ],
    )
    def test_a_document_of_the_wrong_kind_or_count_exits_two(self, docs, capsys, argv, message):
        # the kind check names the file and the kind it needs; nothing is printed
        code, out, err = run_cli([docs.get(x, x) for x in argv], capsys)
        assert (code, out) == (2, "")
        assert message.format(**docs) in err

    def test_flat_inverse(self, docs, capsys):
        code, out, _ = run_cli(["chart", "flat", "--w", docs["w"], "--inverse", docs["f"]], capsys)
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["omega"], [0, 3])
        assert np.allclose(np.abs(doc["v"]["basis"]), [[1, 0]])

    def test_flat_inverse_takes_a_subspace_as_its_flat_through_the_origin(self, docs, tmp_path, capsys):
        basis = [[0.6, 0.8]]
        outs = []
        for name, doc in (
            ("s.json", {"type": "subspace", "ambient_dim": 2, "basis": basis}),
            ("f0.json", {"type": "flat", "ambient_dim": 2, "base": [0, 0], "basis": basis}),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            code, out, _ = run_cli(["chart", "flat", "--w", docs["w"], "--inverse", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["omega"] == [0.0, 0.0]

    def test_convex_round_trip(self, docs, tmp_path, capsys):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [1, 0]]}))
        code, out, _ = run_cli(
            ["chart", "convex", "--w", docs["w"], "--forward", docs["v"], docs["omega"], str(body)],
            capsys,
        )
        assert code == 0
        lifted = json.loads(out)
        assert lifted["type"] == "polytope"

        lifted_path = tmp_path / "lifted.json"
        lifted_path.write_text(out)
        code, out, _ = run_cli(["chart", "convex", "--w", docs["w"], "--inverse", str(lifted_path)], capsys)
        assert code == 0
        back = json.loads(out)
        assert np.allclose(back["omega"], [0, 1], atol=1e-9)
        assert np.allclose(sorted(back["body"]["points"]), [[0, 0], [1, 0]], atol=1e-9)


class TestGenCommand:
    def test_deterministic_document(self, capsys):
        code, out1, _ = run_cli(["gen", "--kind", "uniform-subspace", "--dim", "3", "--k", "1", "--seed", "4"], capsys)
        assert code == 0
        _, out2, _ = run_cli(["gen", "--kind", "uniform-subspace", "--dim", "3", "--k", "1", "--seed", "4"], capsys)
        assert out1 == out2
        assert json.loads(out1)["type"] == "subspace"


class TestVerifyCommand:
    def test_passing_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["verify", "--suite", "gap-complement", "--dim", "3", "--trials", "5",
             "--seed", "1", "--report", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True and doc["dim"] == 3
        assert doc == json.loads(out)

    def test_failures_exit_one(self, monkeypatch, capsys):
        fake = Report(suite="gap-oracle", trials=1, failures=[{"check": "forced", "residual": 1.0}])
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, _, _ = run_cli(["verify", "--suite", "gap-oracle", "--dim", "2", "--trials", "1"], capsys)
        assert code == 1

    def test_inconclusive_exit_three(self, monkeypatch, capsys):
        fake = Report(suite="aw-metric", trials=10, inconclusive=9)
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, _, _ = run_cli(["verify", "--suite", "aw-metric", "--dim", "2", "--trials", "10"], capsys)
        assert code == 3

    def test_inconclusive_fraction_configurable(self, monkeypatch, capsys):
        fake = Report(suite="aw-metric", trials=10, inconclusive=9)
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, _, _ = run_cli(
            ["verify", "--suite", "aw-metric", "--dim", "2", "--trials", "10", "--max-inconclusive", "0.95"],
            capsys,
        )
        assert code == 0


class TestGeometricToleranceEnv:
    def test_env_override(self, docs, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCONVEX_TOL", "not-a-number")
        code, _, err = run_cli(["project", docs["a"], "--point", "1,1"], capsys)
        assert code == 2
        assert "HYPERCONVEX_TOL" in err

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    def test_non_finite_override_is_rejected(self, tmp_path, capsys, monkeypatch, raw):
        # an infinite tau_geom would stop the projection at its first vertex:
        # (0, 4) at distance 3.162 instead of (2, 2) at sqrt(2)
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"type": "polytope", "ambient_dim": 2, "points": [[0, 0], [4, 0], [0, 4]]}))
        monkeypatch.setenv("HYPERCONVEX_TOL", raw)
        code, _, err = run_cli(["project", str(path), "--point", "3,3"], capsys)
        assert code == 2
        assert "HYPERCONVEX_TOL" in err

    def test_rejected_even_when_command_needs_no_tolerance(self, docs, capsys, monkeypatch):
        # exact polytope hausdorff never consults tau_geom; the CLI must
        # still refuse a malformed override up front
        monkeypatch.setenv("HYPERCONVEX_TOL", "oops")
        code, _, err = run_cli(["dist", "--metric", "hausdorff", docs["a"], docs["b"]], capsys)
        assert code == 2
        assert "HYPERCONVEX_TOL" in err
