"""Command-line interface: artifacts, determinism, and exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import qmc

from geomstates import (
    PolyTensorField,
    analyze_contraction,
    build_basis,
    gradient_vf,
    hamiltonian_vf,
    integrate,
    lindblad_vf,
    max_bloch_radius,
    model_gisin,
    model_phase_damping,
    model_three_level_decay,
    poisson_field,
    pushforward_affine,
    state_from_coords,
    symmetric_field,
)
from geomstates.cli import (
    DEFAULT_SEED,
    REGISTRY,
    _json_text,
    _print_report_summary,
    _write_json,
    main,
    report_json,
    run_scenario,
    sample_states,
)
from geomstates.contraction import LimitSetAlgebra
from conftest import per_point_density_matrix

BUILTINS = [
    "bloch-field",
    "phase-damping",
    "qubit-dissipation",
    "massive-decoherence",
    "pure-decoherence",
    "three-level-decay",
    "gisin",
    "double-bracket",
    "kaufman-morrison",
]


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRegistry:
    def test_builtin_names(self):
        assert list(REGISTRY) == BUILTINS

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == BUILTINS

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_builtin_writes_expected_artifacts(self, name, tmp_path):
        assert main(["run", name, "--out", str(tmp_path), "--points", "20"]) == 0
        base = name.replace("-", "_")
        labels = ["hamiltonian", "gradient_descent"] if name == "bloch-field" else ["generator"]
        fields = [f"{base}_field_{label}.csv" for label in labels]
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(fields + [f"{base}_trajectory.csv"])
        m = 8 if name in ("massive-decoherence", "pure-decoherence", "three-level-decay") else 3
        xs = [f"x_{j + 1}" for j in range(m)]
        for f in fields:
            rows = _read_rows(tmp_path / f)
            assert rows[0] == xs + [f"v_{j + 1}" for j in range(m)]
            assert len(rows) == 21
            # the origin anchor comes first
            assert [float(v) for v in rows[1][:m]] == [0.0] * m
        assert _read_rows(tmp_path / f"{base}_trajectory.csv")[0] == ["t"] + xs + ["purity"]


class TestArtifacts:
    def test_phase_damping_run(self, tmp_path, capsys):
        code = main(
            ["run", "phase-damping", "--out", str(tmp_path), "--report", "--points", "40"]
        )
        assert code == 0
        log = capsys.readouterr().out
        assert "verdict: limit" in log
        assert "{x1,x3} = -x2" in log

        field = tmp_path / "phase_damping_field_generator.csv"
        traj = tmp_path / "phase_damping_trajectory.csv"
        report = tmp_path / "phase_damping_report.json"
        tables = tmp_path / "phase_damping_tables.json"
        for p in (field, traj, report, tables):
            assert p.is_file(), p

        rows = _read_rows(field)
        assert rows[0] == ["x_1", "x_2", "x_3", "v_1", "v_2", "v_3"]
        assert len(rows) >= 41  # header + anchors + grid
        rows_t = _read_rows(traj)
        assert rows_t[0] == ["t", "x_1", "x_2", "x_3", "purity"]
        assert float(rows_t[1][0]) == 0.0

        rep = json.loads(report.read_text())
        assert rep["model"] == "phase-damping"
        assert rep["verdict"] == "limit"
        assert rep["sectors"]["poisson"]["verdict"] == "limit"
        residuals = {k: v for k, v in rep["axioms"].items() if k != "trials"}
        assert max(residuals.values()) < 1e-9
        tab = json.loads(tables.read_text())
        assert "poisson" in tab and "jordan" in tab
        assert len(tab["poisson"]) == 3  # full static grids
        assert tab["jordan"][0][0]["c0"] == 1.0

    def test_dephasing_field_values_on_grid(self, tmp_path):
        main(["run", "phase-damping", "--out", str(tmp_path), "--points", "25"])
        rows = _read_rows(tmp_path / "phase_damping_field_generator.csv")[1:]
        for row in rows:
            x = np.array([float(v) for v in row[:3]])
            v = np.array([float(v) for v in row[3:]])
            assert np.abs(v - [-2 * x[0], -2 * x[1], 0.0]).max() < 1e-12

    def test_bloch_anchor_rows_exactly_stationary(self, tmp_path):
        main(["run", "bloch-field", "--out", str(tmp_path), "--points", "30"])
        ham = _read_rows(tmp_path / "bloch_field_field_hamiltonian.csv")[1:]
        # anchors are written first: origin then +/- the field axis
        axis_rows = [r for r in ham[:5] if abs(abs(float(r[2])) - 1.0) < 1e-15]
        assert len(axis_rows) == 2
        for r in axis_rows:
            assert r[3:] == ["0", "0", "0"]
        grad = _read_rows(tmp_path / "bloch_field_field_gradient_descent.csv")[1:]
        pole_rows = [r for r in grad[:5] if abs(abs(float(r[2])) - 1.0) < 1e-15]
        assert len(pole_rows) == 2
        for r in pole_rows:
            assert all(float(c) == 0.0 for c in r[3:])

    def test_trajectory_matches_closed_form(self, tmp_path):
        main(
            [
                "run", "phase-damping", "--out", str(tmp_path),
                "--x0", "0.4,-0.2,0.5", "--t-end", "2.0", "--dt", "0.5",
            ]
        )
        rows = _read_rows(tmp_path / "phase_damping_trajectory.csv")[1:]
        for row in rows:
            t = float(row[0])
            x = np.array([float(v) for v in row[1:4]])
            want = np.array(
                [0.4 * np.exp(-2 * t), -0.2 * np.exp(-2 * t), 0.5]
            )
            assert np.abs(x - want).max() < 1e-12

    def test_three_level_decay_report(self, tmp_path, capsys):
        code = main(
            ["run", "three-level-decay", "--out", str(tmp_path), "--report", "--points", "30"]
        )
        assert code == 0
        log = capsys.readouterr().out
        assert "verdict: divergent" in log
        assert "matches a 2-level system" in log
        rep = json.loads((tmp_path / "three_level_decay_report.json").read_text())
        assert rep["verdict"] == "divergent"
        modes = rep["sectors"]["poisson"]["modes"]
        assert modes and all(m["growth_rate"] == pytest.approx(3.0) for m in modes)
        ls = rep["limit_set"]
        assert ls["free_coordinates"] == ["x_1", "x_2", "x_3"]
        assert ls["isomorphic_to_level"] == 2

    def test_single_point_limit_set_has_no_level(self, basis2):
        rep = analyze_contraction(lindblad_vf(model_phase_damping(1.0)), basis2)
        point = LimitSetAlgebra(
            point=np.zeros(3),
            free_indices=[],
            directions=np.zeros((3, 0)),
            poisson=PolyTensorField.zero(0, "antisymmetric"),
            jordan=PolyTensorField.zero(0, "symmetric"),
            closed=True,
            c_red=np.zeros((1, 1, 1)),
            d_red=np.ones((1, 1, 1)),
        )
        out = report_json(dataclasses.replace(rep, limit_set=point), "single-point")
        assert out["limit_set"]["free_coordinates"] == []
        assert "isomorphic_to_level" not in out["limit_set"]


def _single_point(point):
    return LimitSetAlgebra(
        point=np.asarray(point, dtype=float),
        free_indices=[],
        directions=np.zeros((len(point), 0)),
        poisson=PolyTensorField.zero(0, "antisymmetric"),
        jordan=PolyTensorField.zero(0, "symmetric"),
        closed=True,
        c_red=np.zeros((1, 1, 1)),
        d_red=np.ones((1, 1, 1)),
    )


class TestReports:
    def test_booleans_are_json_booleans(self, tmp_path):
        run_scenario("three-level-decay", out_dir=str(tmp_path),
                     params={"points": 10}, report=True)
        rep = json.loads((tmp_path / "three_level_decay_report.json").read_text())
        assert rep["limit_set"]["closed"] is True
        assert rep["stationary"]["in_body"] == [True]
        modes = [md for sec in rep["sectors"].values() for md in sec["modes"]]
        assert modes
        for md in modes:
            assert isinstance(md["polynomial_growth"], bool)
            assert isinstance(md["oscillatory"], bool)

    def test_single_point_limit_set_summary(self, basis2):
        rep = analyze_contraction(lindblad_vf(model_phase_damping(1.0)), basis2)
        rep = dataclasses.replace(
            rep, verdict="divergent", limit_set=_single_point([0.0, 0.6, 6.2e-17])
        )
        lines = []
        _print_report_summary(rep, report_json(rep, "single-point"), lines)
        assert "limit set: a single point; pinned x_1=0, x_2=0.6, x_3=0" in lines


# ------------------------------------------------------------ JSON writer

_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -1.7976931348623157e308, 1e16, 0.1, 1 / 3]
)
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(_finite, max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_trees)
    def test_matches_stdlib(self, obj):
        assert _json_text(obj) == _stdlib(obj) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(_json_trees)
    def test_written_file_ends_in_one_newline(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            _write_json(path, obj)
            assert path.read_bytes() == (_stdlib(obj) + "\n").encode("utf-8")

    def test_numpy_and_complex_values(self):
        obj = {
            "array": np.array([[1.0, -0.0], [2.5, 1e-300]]),
            "ints": np.arange(3),
            "scalars": [np.float64(0.1), np.float32(0.5), np.int64(7), np.bool_(False)],
            "complex": [1.5 - 2j, np.complex128(0.25j)],
            "flag": True,
            7: (1, None),
        }
        plain = {
            "array": [[1.0, -0.0], [2.5, 1e-300]],
            "ints": [0, 1, 2],
            "scalars": [0.1, 0.5, 7, False],
            "complex": [[1.5, -2.0], [0.0, 0.25]],
            "flag": True,
            "7": [1, None],
        }
        assert _json_text(obj) == _stdlib(plain) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_raise(self, bad):
        for obj in (bad, [1.0, bad], np.array([0.0, bad]), {"a": np.float64(bad)},
                    complex(bad, 0.0)):
            with pytest.raises(ValueError):
                _json_text(obj)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            _json_text({"a": object()})

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[0.0, -0.0, 1.5]] * 4),
            np.array([[[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [-0.0, 0.1]]]),
            np.array([-0.0, 0.0, 5e-324, 1 / 3]),
            np.zeros(0),
            np.zeros((3, 0)),
            np.zeros((0, 4)),
            np.array([[1e300], [1e300]]),
        ],
        ids=["repeated-rows", "3d", "1d", "empty", "empty-rows", "no-rows", "column"],
    )
    def test_float_arrays_match_stdlib(self, arr):
        assert _json_text(arr) == json.dumps(arr.tolist(), indent=2) + "\n"
        # the same row at two depths keeps the indentation of each
        obj = {"a": arr, "b": [arr, {"c": arr}]}
        plain = {"a": arr.tolist(), "b": [arr.tolist(), {"c": arr.tolist()}]}
        assert _json_text(obj) == _stdlib(plain) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5e-17, 1e16]),
                    min_size=1, max_size=24),
           st.sampled_from([(1,), (2,), (3,), (6,), (2, 3), (3, 2)]))
    def test_arrays_with_repeated_rows_match_stdlib(self, pool, lead):
        rng = np.random.default_rng(len(pool))
        arr = np.array(pool)[rng.integers(len(pool), size=lead + (3,))]
        assert _json_text({"x": arr}) == _stdlib({"x": arr.tolist()}) + "\n"

    def test_non_finite_array_entry_raises(self):
        arr = np.zeros((3, 4))
        arr[2, 1] = np.nan
        for obj in (arr, {"a": [arr]}):
            with pytest.raises(ValueError):
                _json_text(obj)


# ------------------------------------------------------------- sampling


def _per_point_samples(basis, count, seed, anchors, cols):
    """Reference sampler: each Halton point tested on its own matrix."""
    pts = [np.asarray(a, dtype=float) + 0.0 for a in anchors]
    sampler = qmc.Halton(d=len(cols), scramble=True, seed=seed)
    R = max_bloch_radius(basis.n)
    while len(pts) < count:
        for u in sampler.random(max(128, 2 * (count - len(pts)))):
            x = np.zeros(basis.m)
            x[cols] = (2.0 * u - 1.0) * R
            if np.linalg.eigvalsh(per_point_density_matrix(basis, x)).min() >= -1e-12:
                pts.append(x)
                if len(pts) == count:
                    break
    return np.array(pts)


class TestSampling:
    @pytest.mark.parametrize(
        "n, slice_coords, n_anchors",
        [(2, None, 0), (3, None, 1), (4, (3, 8), 3)],
    )
    def test_matches_per_point_reference(self, n, slice_coords, n_anchors):
        basis = build_basis(n)
        anchors = [0.1 * k * np.ones(basis.m) for k in range(n_anchors)]
        cols = (
            list(range(basis.m)) if slice_coords is None and n == 2
            else [0, 1] if slice_coords is None
            else [c - 1 for c in slice_coords]
        )
        got = sample_states(basis, 300, 11, anchors=anchors, slice_coords=slice_coords)
        want = _per_point_samples(basis, 300, 11, anchors, cols)
        assert got.shape == (300, basis.m)
        assert got.tobytes() == want.tobytes()


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["run", "qubit-dissipation", "--out", str(d), "--points", "50"]) == 0
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            assert p2.is_file()
            assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_grid(self, tmp_path, monkeypatch):
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "phase-damping", "--out", str(d1), "--points", "40"])
        monkeypatch.setenv("GEOM_SEED", "123")
        main(["run", "phase-damping", "--out", str(d2), "--points", "40"])
        main(["run", "phase-damping", "--out", str(d3), "--points", "40"])
        f = "phase_damping_field_generator.csv"
        assert (d1 / f).read_bytes() != (d2 / f).read_bytes()
        assert (d2 / f).read_bytes() == (d3 / f).read_bytes()

    def test_invalid_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GEOM_SEED", "not-a-number")
        assert main(["run", "phase-damping", "--out", str(tmp_path)]) == 2
        assert "GEOM_SEED" in capsys.readouterr().err


class TestScenarioFiles:
    def _write(self, path, data):
        path.write_text(json.dumps(data))
        return str(path)

    def test_custom_model_all_outputs(self, tmp_path, capsys):
        scen = {
            "name": "custom-damping",
            "n": 2,
            "model": {
                "H": [[0.5, 0.0], [0.0, -0.5]],
                "V": [[[0.0, 0.7], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]],
            },
            "outputs": ["field-samples", "trajectory", "tensor-family", "contraction", "tables"],
            "parameters": {"points": 30, "t_end": 2.0},
        }
        code = main(["run", self._write(tmp_path / "scen.json", scen), "--out", str(tmp_path)])
        assert code == 0
        fam = json.loads((tmp_path / "custom_damping_tensor_family.json").read_text())
        assert len(fam["times"]) == 11
        assert set(fam) == {"poisson", "symmetric", "times"}
        assert len(fam["poisson"]) == len(fam["times"])
        rep = json.loads((tmp_path / "custom_damping_report.json").read_text())
        assert rep["verdict"] in {"limit", "divergent", "oscillatory"}

    def test_complex_entries_parse(self, tmp_path):
        scen = {
            "name": "complex-jump",
            "n": 2,
            "model": {"V": [[[0.5, [0.0, -0.5]], [[0.0, 0.5], -0.5]]]},
            "outputs": ["trajectory"],
        }
        assert main(["run", self._write(tmp_path / "s.json", scen), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "complex_jump_trajectory.csv").is_file()

    def test_explicit_flag_beats_file_parameter(self, tmp_path):
        scen = {
            "name": "tuned",
            "n": 2,
            "model": "phase-damping",
            "parameters": {"gamma": 2.0, "points": 20},
        }
        p = self._write(tmp_path / "tuned.json", scen)
        d1, d2 = tmp_path / "file-gamma", tmp_path / "cli-gamma"
        main(["run", p, "--out", str(d1)])
        main(["run", p, "--out", str(d2), "--gamma", "3.0"])
        rows1 = _read_rows(d1 / "tuned_field_generator.csv")[1:]
        rows2 = _read_rows(d2 / "tuned_field_generator.csv")[1:]
        x = np.array([float(v) for v in rows1[3][:3]])
        v1 = np.array([float(v) for v in rows1[3][3:]])
        v2 = np.array([float(v) for v in rows2[3][3:]])
        assert np.abs(v1 - [-4 * x[0], -4 * x[1], 0.0]).max() < 1e-12
        assert np.abs(v2 - [-6 * x[0], -6 * x[1], 0.0]).max() < 1e-12

    def test_library_params_beat_file_parameter(self, tmp_path):
        scen = {
            "name": "tuned",
            "model": "phase-damping",
            "parameters": {"gamma": 2.0, "points": 20},
            "outputs": ["field-samples"],
        }
        p = self._write(tmp_path / "tuned.json", scen)
        _, lines = run_scenario(p, out_dir=str(tmp_path), params={"gamma": 3.0})
        assert "(20 samples)" in lines[-1]
        rows = _read_rows(tmp_path / "tuned_field_generator.csv")[1:]
        for row in rows:
            x = np.array([float(v) for v in row[:3]])
            v = np.array([float(v) for v in row[3:]])
            assert np.abs(v - [-6 * x[0], -6 * x[1], 0.0]).max() < 1e-12


class TestExitCodes:
    def test_unknown_builtin(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        for name in BUILTINS:
            assert name in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  "n": oops}\n')
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_quadratic_generator_report_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "gisin", "--out", str(tmp_path), "--report", "--points", "20"])
        assert code == 1
        assert "affine" in capsys.readouterr().err

    @staticmethod
    def _run_in_3_gib(args):
        """The CLI in a subprocess whose address space is capped at 3 GiB."""
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)
        env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        return subprocess.run(
            [sys.executable, "-m", "geomstates.cli", "run", *args],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, **env},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)),
        )

    def test_oversize_superoperator_fails_cleanly(self, tmp_path):
        """d = 8 (m = 63) is the smallest size whose contraction figure,
        3.83 GiB, exceeds the 3 GiB limit."""
        scen = tmp_path / "octet.json"
        scen.write_text(json.dumps({
            "model": "massive-decoherence",
            "parameters": {"d": 8},
            "outputs": ["contraction"],
        }))
        proc = self._run_in_3_gib([str(scen), "--out", str(tmp_path)])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: the contraction analysis at m=63")
        assert "GiB" in proc.stderr and "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*_report.json"))

    def test_ququart_contraction_fits(self, tmp_path):
        """n = 4 contraction runs under the same 3 GiB limit and writes its
        report."""
        scen = tmp_path / "ququart.json"
        scen.write_text(json.dumps({
            "name": "ququart",
            "model": "massive-decoherence",
            "parameters": {"d": 4, "points": 10},
        }))
        proc = self._run_in_3_gib([str(scen), "--report", "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        assert "contraction verdict: limit" in proc.stdout
        assert json.loads((tmp_path / "ququart_report.json").read_text())["verdict"] == "limit"

    @pytest.mark.parametrize(
        "args, what",
        [
            # 5e9 samples: 37 GiB for the sample times alone
            (["--dt", "1e-9"], "trajectory"),
            # a first Halton draw of 2e9 points
            (["--points", "1000000000"], "grid"),
        ],
    )
    def test_oversize_samples_fail_cleanly(self, tmp_path, args, what):
        proc = self._run_in_3_gib(["phase-damping", "--out", str(tmp_path), *args])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: a " + what) and "GiB" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_points_rejected(self, tmp_path, capsys):
        code = main(["run", "phase-damping", "--out", str(tmp_path), "--points", "-2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        scen = tmp_path / "neg.json"
        scen.write_text(json.dumps(
            {"model": "phase-damping", "parameters": {"points": -4}}
        ))
        assert main(["run", str(scen), "--out", str(tmp_path / "f")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("dt", ["0", "-1"])
    def test_nonpositive_sample_step_rejected(self, tmp_path, capsys, dt):
        code = main(["run", "phase-damping", "--out", str(tmp_path), "--points", "5",
                     "--dt", dt])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "step" in err
        assert not (tmp_path / "phase_damping_trajectory.csv").exists()

    def test_invalid_output_kind_rejected(self, tmp_path, capsys):
        scen = {"name": "bad-out", "n": 2, "model": "phase-damping", "outputs": ["nope"]}
        p = tmp_path / "bad-out.json"
        p.write_text(json.dumps(scen))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 1
        assert "output" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "scen, named",
        [
            ({"model": "phase-damping", "parameters": {"points": "abc"}}, "'points'"),
            ({"model": "phase-damping", "parameters": {"gamma": "abc"}}, "'gamma'"),
            ({"model": "phase-damping", "parameters": {"t_end": "x"}}, "'t_end'"),
            ({"model": "phase-damping", "parameters": {"seed": "x"}}, "'seed'"),
            ({"model": "phase-damping", "parameters": {"points": True}}, "'points'"),
            ({"model": "phase-damping", "parameters": {"gamma": float("nan")}}, "'gamma'"),
            ({"model": "phase-damping", "parameters": {"x0": [0.1, "a", 0]}}, "'x0'"),
            ({"n": "two", "model": {"V": [[[0, 1], [0, 0]]]}}, "n='two'"),
            ({"model": "phase-damping", "outputs": "trajectory"}, "'outputs'"),
            ({"model": {"H": [[True, 0], [0, -1]]}}, "H:"),
            ({"model": {"H": [[["a", 0], 0], [0, -1]]}}, "H:"),
            ({"model": 5}, "'model'"),
        ],
    )
    def test_malformed_scenario_values_rejected(self, tmp_path, capsys, scen, named):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(scen))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--t-end", "inf")])
    def test_non_finite_flags_rejected(self, tmp_path, capsys, flag, value):
        # a NaN rate used to give an all-zero generator and a "limit" verdict
        out = tmp_path / "out"
        assert main(["run", "phase-damping", "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: parameter")
        assert not out.exists()


def _per_value_csv(names, rows):
    """CSV text written one ``{:.17g}`` value at a time."""
    lines = [",".join(names)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _xv_names(m):
    return [f"x_{j + 1}" for j in range(m)] + [f"v_{j + 1}" for j in range(m)]


class TestCsvArtifacts:
    """Field and trajectory files against references formatted value by
    value, at the smallest grids: no rows, and the first anchor alone."""

    def _fields(self, name):
        if name == "bloch-field":
            basis = build_basis(2)
            obs = basis.observable([0.0, 0.0, 0.0, 1.0])
            return {"hamiltonian": hamiltonian_vf(basis, obs),
                    "gradient_descent": -gradient_vf(basis, obs)}
        return {"generator": lindblad_vf(model_three_level_decay())}

    @pytest.mark.parametrize("name", ["bloch-field", "three-level-decay"])
    @pytest.mark.parametrize("how", ["flag-0", "flag-1", "file-0"])
    def test_smallest_grids(self, tmp_path, name, how):
        out = tmp_path / "out"
        if how == "file-0":
            scen = tmp_path / "scen.json"
            scen.write_text(json.dumps({"name": name, "model": name,
                                        "parameters": {"points": 0}}))
            assert main(["run", str(scen), "--out", str(out)]) == 0
        else:
            points = how[-1]
            assert main(["run", name, "--out", str(out), "--points", points]) == 0
        for label, vf in self._fields(name).items():
            text = (out / f"{name.replace('-', '_')}_field_{label}.csv").read_text()
            rows = []
            if how == "flag-1":
                # the origin anchor, where the field is its constant part
                x = np.zeros(vf.m)
                rows = [np.concatenate((x, vf(x)))]
            assert text == _per_value_csv(_xv_names(vf.m), rows)
            if not rows:
                assert text == ",".join(_xv_names(vf.m)) + "\n"

    @pytest.mark.parametrize("name, method", [("phase-damping", "exact-affine"),
                                              ("gisin", "rk45")])
    def test_trajectory_matches_per_row_format(self, tmp_path, name, method):
        assert main(["run", name, "--out", str(tmp_path), "--points", "0"]) == 0
        basis = build_basis(2)
        if name == "gisin":
            Z = model_gisin(basis, basis.observable([0.0, 0.0, 0.0, 1.0]))
        else:
            Z = lindblad_vf(model_phase_damping(1.0))
        traj = integrate(Z, state_from_coords(basis, np.array([0.3, 0.3, 0.8])), 5.0)
        assert traj.method == method
        # reference: one row per time step, formatted one value at a time
        purities = traj.purities()
        rows = [np.concatenate(([t], traj.xs[i], [purities[i]]))
                for i, t in enumerate(traj.times)]
        want = _per_value_csv(["t", "x_1", "x_2", "x_3", "purity"], rows)
        assert (tmp_path / f"{name.replace('-', '_')}_trajectory.csv").read_text() == want


class TestTensorFamily:
    def test_three_level_family_needs_no_superoperator(self, tmp_path, monkeypatch):
        """Writing a tensor family is transport alone: no spectral
        analysis, so no Schur factorisation."""
        import scipy.linalg

        calls = []
        real = scipy.linalg.schur
        monkeypatch.setattr(
            scipy.linalg, "schur", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        scen = tmp_path / "fam.json"
        scen.write_text(json.dumps({
            "name": "fam", "model": "three-level-decay", "outputs": ["tensor-family"],
        }))
        run_scenario(str(scen), out_dir=str(tmp_path))
        assert calls == []
        fam = json.loads((tmp_path / "fam_tensor_family.json").read_text())
        # the written family is the geometric push-forward, point by point;
        # by t = 5 its values reach ~1e6 through the e^{3t} modes
        Z = lindblad_vf(model_three_level_decay())
        basis = build_basis(3)
        y = np.array([0.1, -0.2, 0.15, 0.05, -0.1, 0.2, -0.05, 0.1])
        for key, T in (("poisson", poisson_field(basis)), ("symmetric", symmetric_field(basis))):
            for t, data in zip(fam["times"][::5], fam[key][::5]):
                want = pushforward_affine(Z, T, t, y)
                got = PolyTensorField.from_dict(data)(y)
                assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "geomstates.cli", "run", "phase-damping",
             "--out", str(tmp_path), "--points", "10"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "phase_damping_trajectory.csv").is_file()

    def test_in_process_matches_subprocess(self, tmp_path):
        d1, d2 = tmp_path / "inproc", tmp_path / "subproc"
        assert main(["run", "bloch-field", "--out", str(d1), "--points", "15"]) == 0
        subprocess.run(
            [sys.executable, "-m", "geomstates.cli", "run", "bloch-field",
             "--out", str(d2), "--points", "15"],
            capture_output=True, timeout=120, check=True,
        )
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()
