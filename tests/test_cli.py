import json
import os
import stat

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hodgetrack import cli, spectral
from hodgetrack.analysis import EMBED_ZERO_COEFF
from hodgetrack.cli import BASE_TOLERANCES, main
from hodgetrack.complexes import write_complex_json

from conftest import cycle_complex


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def cloud_csv(tmp_path):
    out = tmp_path / "pts.csv"
    assert run(["generate", "--preset", "four-disks", "--n", "80", "--seed", "7", "--out", out]) == 0
    return out


@pytest.fixture
def complex_json(tmp_path, cloud_csv):
    out = tmp_path / "cx.json"
    assert run(["triangulate", cloud_csv, "--out", out]) == 0
    return out


def test_generate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "pts.csv"
    assert run(["generate", "--preset", "annulus", "--n", "30", "--seed", "2", "--out", out]) == 0
    assert len(out.read_text().strip().split("\n")) == 30
    manifest = json.loads((tmp_path / "pts.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["parameters"] == {"preset": "annulus", "n": 30, "seed": 2}
    assert manifest["rng"] == "pcg64"
    assert manifest["input_sha256"] is None


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["generate", "--preset", "two-clusters", "--n", "50", "--seed", "3", "--out", a])
    run(["generate", "--preset", "two-clusters", "--n", "50", "--seed", "3", "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_triangulate_three_points(tmp_path):
    src = tmp_path / "tri.csv"
    src.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n")
    out = tmp_path / "cx.json"
    assert run(["triangulate", src, "--out", out]) == 0
    data = json.loads(out.read_text())
    by_dim = {}
    for s in data["simplices"]:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 3, 1: 3, 2: 1}
    manifest = json.loads((tmp_path / "cx.json.manifest.json").read_text())
    assert manifest["input_sha256"] is not None and len(manifest["input_sha256"]) == 64


def test_triangulate_validates_via_import(complex_json):
    from hodgetrack import import_complex

    fc = import_complex(complex_json)  # raises if closure/monotonicity broken
    assert fc.n_simplices(0) == 80


def test_exit_code_input_error(tmp_path):
    assert run(["triangulate", tmp_path / "missing.csv", "--out", tmp_path / "x.json"]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n")
    assert run(["triangulate", bad, "--out", tmp_path / "x.json"]) == 1


def test_exit_code_degeneracy(tmp_path):
    line = tmp_path / "line.csv"
    line.write_text("".join(f"{float(i)},{2.0 * i}\n" for i in range(5)))
    assert run(["triangulate", line, "--out", tmp_path / "x.json"]) == 2


def test_exit_code_bad_flag():
    assert run(["spectrum", "--bogus"]) == 1


@pytest.mark.parametrize("args", [
    ["track", "--num", "0"],
    ["track", "--num", "-3"],
    ["spectrum", "--num", "-2"],
    ["track", "--theta", "2"],
    ["track", "--theta", "-0.5"],
    ["track", "--theta", "nan"],
    ["track", "--theta", "2", "--steps", "1"],
])
def test_exit_code_bad_budget_or_theta(tmp_path, complex_json, args):
    command, *rest = args
    out = ["--out", tmp_path / "o.json"] if command == "spectrum" else ["--out-prefix", tmp_path / "o"]
    assert run([command, complex_json, *rest, *out]) == 1
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("o.")] == []


def test_spectrum_manifest_lists_every_spectral_tolerance(tmp_path, complex_json):
    from hodgetrack import spectral

    out = tmp_path / "spec.json"
    assert run(["spectrum", complex_json, "--num", "5", "--out", out]) == 0
    manifest = json.loads((tmp_path / "spec.json.manifest.json").read_text())
    coeffs = {name.lower(): value for name, value in vars(spectral).items() if name.endswith("_COEFF")}
    assert len(coeffs) >= 4
    assert coeffs.items() <= manifest["tolerances"].items()


def test_spectrum_hollow_triangle(tmp_path):
    src = tmp_path / "cx.json"
    src.write_text(json.dumps({
        "simplices": [[0], [1], [2], [0, 1], [0, 2], [1, 2]],
        "values": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    }))
    out = tmp_path / "spec.json"
    assert run(["spectrum", src, "--dim", "1", "--num", "0", "--out", out]) == 0
    data = json.loads(out.read_text())
    vals = [p["lambda"] for p in data["pairs"]]
    kinds = [p["type"] for p in data["pairs"]]
    np.testing.assert_allclose(vals, [0.0, 3.0, 3.0], atol=1e-9)
    assert kinds == ["harmonic", "gradient", "gradient"]


def test_spectrum_below_all_edges(tmp_path, complex_json):
    out = tmp_path / "empty.json"
    assert run(["spectrum", complex_json, "--t", "0.0", "--dim", "1", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["pairs"] == [] and data["n_chain"] == 0


def test_spectrum_include_vectors(tmp_path, complex_json):
    out = tmp_path / "withvec.json"
    assert run([
        "spectrum", complex_json, "--dim", "1", "--num", "5",
        "--include-vectors", "--out", out,
    ]) == 0
    data = json.loads(out.read_text())
    assert all(len(p["vector"]) == data["n_chain"] for p in data["pairs"])


def test_track_outputs_and_determinism(tmp_path, complex_json):
    p1 = tmp_path / "run1"
    p2 = tmp_path / "run2"
    args = ["track", complex_json, "--dim", "1", "--num", "20", "--steps", "10"]
    assert run(args + ["--out-prefix", p1]) == 0
    assert run(args + ["--out-prefix", p2]) == 0
    for ext in (".csv", ".json", ".svg"):
        assert (tmp_path / ("run1" + ext)).exists()
        a = (tmp_path / ("run1" + ext)).read_bytes()
        b = (tmp_path / ("run2" + ext)).read_bytes()
        assert a == b
    manifest = json.loads((tmp_path / "run1.manifest.json").read_text())
    assert manifest["parameters"]["steps"] == 10
    assert len(manifest["parameters"]["grid"]) == 10
    assert manifest["tolerances"]["theta"] == 0.5
    diagnostics = manifest["diagnostics"]
    assert len(diagnostics["solved_steps"]) <= 10
    assert len(diagnostics["slice_sizes"]) == 10
    assert "solved_steps" not in (tmp_path / "run1.json").read_text()


def test_track_single_step_rows(tmp_path, complex_json):
    prefix = tmp_path / "one"
    assert run([
        "track", complex_json, "--dim", "1", "--num", "8", "--steps", "1",
        "--out-prefix", prefix,
    ]) == 0
    lines = (tmp_path / "one.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8  # header + one row per eigenpair


def test_cluster_command(tmp_path, complex_json):
    prefix = tmp_path / "clus"
    assert run([
        "cluster", complex_json, "--dim", "1", "--mode", "total",
        "--num-eigvecs", "3", "--clusters", "3", "--seed", "1",
        "--nodes", "--out-prefix", prefix,
    ]) == 0
    labels = (tmp_path / "clus.csv").read_text().strip().split("\n")
    assert labels[0] == "v0,v1,label"
    nodes = (tmp_path / "clus_nodes.csv").read_text().strip().split("\n")
    assert nodes[0] == "vertex,label"
    assert len(nodes) == 1 + 80
    manifest = json.loads((tmp_path / "clus.manifest.json").read_text())
    assert manifest["parameters"]["num_eigvecs"] == 3
    assert manifest["tolerances"] == dict(BASE_TOLERANCES, embed_zero_coeff=EMBED_ZERO_COEFF)
    assert sorted(manifest["outputs"]) == sorted([
        str(tmp_path / "clus.csv"), str(tmp_path / "clus.svg"),
        str(tmp_path / "clus_nodes.csv"),
    ])


def test_hgc_command(tmp_path, complex_json):
    prefix = tmp_path / "roles"
    assert run([
        "hgc", complex_json, "--dim", "1", "--num", "12", "--out-prefix", prefix,
    ]) == 0
    lines = (tmp_path / "roles.csv").read_text().strip().split("\n")
    assert lines[0] == "v0,v1,harmonic,gradient,curl"
    vals = np.array([[float(x) for x in ln.split(",")[2:]] for ln in lines[1:]])
    assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-15
    assert (tmp_path / "roles.svg").read_text().startswith("<?xml")


def test_no_partial_files_on_failure(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.0\nx,y\n")
    out = tmp_path / "cx.json"
    assert run(["triangulate", bad, "--out", out]) == 1
    assert not out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_outputs_take_their_mode_from_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert run(["generate", "--preset", "four-disks", "--n", "60", "--seed", "7",
                    "--out", tmp_path / "pts.csv"]) == 0
        assert run(["triangulate", tmp_path / "pts.csv", "--out", tmp_path / "cx.json"]) == 0
        assert run(["track", tmp_path / "cx.json", "--num", "6", "--steps", "4",
                    "--out-prefix", tmp_path / "run"]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert sorted(modes) == [
        "cx.json", "cx.json.manifest.json", "pts.csv", "pts.csv.manifest.json",
        "run.csv", "run.json", "run.manifest.json", "run.svg",
    ]
    assert set(modes.values()) == {0o644}


def test_arpack_failure_exits_as_solver_error(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise spla.ArpackError(3)

    src = tmp_path / "cycle.json"
    write_complex_json(cycle_complex(12), src)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 4)
    monkeypatch.setattr(spla, "eigsh", fail)
    assert run(["spectrum", src, "--num", "3", "--out", tmp_path / "spec.json"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.json"]


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "generate", fail)
    assert run(["generate", "--preset", "annulus", "--n", "5", "--out", tmp_path / "p.csv"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert list(tmp_path.iterdir()) == []
