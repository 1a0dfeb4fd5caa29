"""End-to-end runs of the command line interface in subprocesses.

Nearly every test drives `python -m circadia.cli` the way a user would and
checks exit codes, the file sets written to --out, and the manifest
contract; the compare work guard and the BO wiring checks run
`circadia.cli.main` in-process to count the solver calls or capture the
splined samples.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

MANIFEST_KEYS = {"command", "identity", "inputs", "outputs", "parameters",
                 "version", "wall_time_s"}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "circadia.cli", *map(str, args)],
        capture_output=True, text=True, timeout=600)


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_manifest(path, command):
    """The manifest's keys, and its outputs naming exactly what --out holds
    beside it."""
    doc = read_json(path)
    assert set(doc) == MANIFEST_KEYS
    assert doc["command"] == command
    assert doc["version"] == "0.1.0"
    assert doc["wall_time_s"] is None
    assert isinstance(doc["identity"], str) and doc["identity"]
    assert set(os.listdir(os.path.dirname(path))) == \
        set(doc["outputs"]) | {"manifest.json"}
    return doc


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "0.1.0" in res.stdout + res.stderr


def test_no_command_prints_usage_and_fails():
    res = run_cli()
    assert res.returncode == 1
    assert "usage" in res.stderr.lower()


def test_reduce_writes_potential_bundle(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "reduce_out"
    res = run_cli("reduce", "--circuit", circuit, "--out", out)
    assert res.returncode == 0, res.stderr
    names = {p.name for p in out.iterdir()}
    assert names == {"manifest.json", "potential.csv", "potential.svg",
                     "reduce_report.json"}
    report = read_json(out / "reduce_report.json")
    assert report["verdict"] == "single-valued"
    assert report["beta"] == pytest.approx(0.5, rel=1e-9)
    assert report["beta_crit"] == pytest.approx(1.0, rel=1e-9)
    assert len(report["minima"]) == 1
    first = (out / "potential.csv").read_text().splitlines()[0]
    assert first.startswith("# units:")
    doc = check_manifest(out / "manifest.json", "reduce")
    assert set(doc["outputs"]) == {"potential.csv", "potential.svg",
                                   "reduce_report.json"}


def test_reduce_rerun_is_byte_identical(write_circuit, tmp_path):
    # compare too: every file it writes, and its printout
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    for command in ("reduce", "compare"):
        outs, stdouts = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            res = run_cli(command, "--circuit", circuit, "--out", out)
            assert res.returncode == 0, res.stderr
            outs.append(out)
            stdouts.append(res.stdout)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "manifest.json" in names and len(names) == 4
        check_manifest(outs[0] / "manifest.json", command)
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), (command, name)
        assert stdouts[0] == stdouts[1]


def test_reduce_supercritical_exits_2_with_branch_table(write_circuit,
                                                        tmp_path):
    circuit = write_circuit("sup.json", kappa=0.5, xi=1.0, lambdaJ=2.0)
    out = tmp_path / "sup_out"
    res = run_cli("reduce", "--circuit", circuit, "--out", out)
    assert res.returncode == 2
    assert "multivalued" in res.stdout
    names = {p.name for p in out.iterdir()}
    assert names == {"branches.csv", "manifest.json", "reduce_report.json"}
    report = read_json(out / "reduce_report.json")
    assert report["verdict"] == "multivalued"
    assert report["beta"] == pytest.approx(2.0, rel=1e-9)
    assert report["beta_crit"] == pytest.approx(1.0, rel=1e-9)
    assert report["max_branches"] == 3
    header = (out / "branches.csv").read_text().splitlines()
    assert header[0] == ("# units: coordinate=phi (dimensionless), V,Vp,Vpp "
                         "in E_C units; one row per branch")
    assert header[1] == "coordinate,V,Vp,Vpp,branch_count"
    check_manifest(out / "manifest.json", "reduce")


def test_custom_potential_table_is_hashed_into_the_manifest(write_circuit,
                                                           tmp_path):
    table = tmp_path / "table.csv"
    circuit = write_circuit("custom.json", kappa=0.5, xi=1.0, lambdaJ=0.5,
                            potential={"kind": "custom_csv",
                                       "path": str(table)})
    phis = np.linspace(-30.0, 30.0, 601).tolist()
    identities = []
    for tag, scale in (("a", 1.0), ("b", 1.0), ("c", 1.01)):
        table.write_text("".join(f"{x!r},{scale * (1.0 - math.cos(x))!r}\n"
                                 for x in phis))
        out = tmp_path / tag
        res = run_cli("reduce", "--circuit", circuit, "--grid", 64,
                      "--out", out)
        assert res.returncode == 0, res.stderr
        doc = check_manifest(out / "manifest.json", "reduce")
        assert set(doc["inputs"]) == {circuit, str(table)}
        identities.append(doc["identity"])
    assert identities[0] == identities[1] != identities[2]


def test_reduce_missing_circuit_exits_1(tmp_path):
    res = run_cli("reduce", "--circuit", tmp_path / "nope.json",
                  "--out", tmp_path)
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


def test_reduce_malformed_field_exits_1_without_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"C_F": "abc", "Cp_F": 1e-14, "L_H": 1e-8,
                                "EJ_J": 1e-24}))
    res = run_cli("reduce", "--circuit", path, "--out", tmp_path / "out")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:") and "'C_F'" in res.stderr
    assert not (tmp_path / "out").exists()


def test_bo_sweep_cosine_verdict_decreasing(write_circuit, tmp_path):
    circuit = write_circuit("bo.json", kappa=0.5, xi=10.0, lambdaJ=5.0)
    out = tmp_path / "bo_out"
    res = run_cli("bo-sweep", "--circuit", circuit, "--out", out,
                  "--kappa-ladder", "0.6,0.45,0.3",
                  "--x-min", -2.0, "--x-max", 2.0, "--x-points", 7)
    assert res.returncode == 0, res.stderr
    assert "verdict: decreasing" in res.stdout
    names = {p.name for p in out.iterdir()}
    assert names == {"bo_report.json", "bo_sweep.csv", "bo_sweep.svg",
                     "manifest.json"}
    report = read_json(out / "bo_report.json")
    assert report["verdict"] == "decreasing"
    sups = report["sup_abs_delta"]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert (out / "bo_sweep.csv").read_text().startswith("# units:")
    check_manifest(out / "manifest.json", "bo-sweep")


def test_bo_sweep_quadratic_control_converges_nonzero(write_circuit,
                                                      tmp_path):
    circuit = write_circuit(
        "quad.json", kappa=0.5, xi=10.0, lambdaJ=5.0,
        potential={"kind": "quadratic", "curvature": 1.0})
    out = tmp_path / "quad_out"
    res = run_cli("bo-sweep", "--circuit", circuit, "--out", out,
                  "--kappa-ladder", "0.6,0.45,0.3",
                  "--x-min", -2.0, "--x-max", 2.0, "--x-points", 7)
    assert res.returncode == 0, res.stderr
    report = read_json(out / "bo_report.json")
    assert report["verdict"] == "converges-nonzero"
    fits = report["quadratic_fits"]
    assert abs(fits[-1]) > 1e-9
    for a, b in zip(fits, fits[1:]):
        assert abs(b - a) <= 0.1 * max(abs(a), abs(b))


def test_bo_sweep_zero_josephson_and_jobs_determinism(write_circuit,
                                                      tmp_path):
    circuit = write_circuit("ej0.json", kappa=0.5, xi=1.0, lambdaJ=0.0)
    outs, manifests = [], []
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}"
        res = run_cli("bo-sweep", "--circuit", circuit, "--out", out,
                      "--kappa-ladder", "0.5,0.4,0.3",
                      "--x-min", -1.0, "--x-max", 1.0, "--x-points", 5,
                      "--jobs", jobs)
        assert res.returncode == 0, res.stderr
        assert "identically zero" in res.stdout
        assert read_json(out / "bo_report.json")["verdict"] == "decreasing"
        check_manifest(out / "manifest.json", "bo-sweep")
        outs.append(out)
        manifests.append(read_json(out / "manifest.json"))
    # worker count must never leak into the data
    for name in ("bo_sweep.csv", "bo_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert manifests[0]["identity"] != manifests[1]["identity"]
    for doc, jobs in zip(manifests, (1, 3)):
        assert doc["parameters"]["jobs"] == jobs
        doc.pop("identity")
        doc["parameters"].pop("jobs")
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("potential, x_max, points", [
    (None, 1.5, 7),
    # not even in x, and no x = 0 on the grid
    ({"kind": "biased_cosine", "phi_ext": 0.7}, 2.0, 6),
], ids=["cosine", "biased-cosine"])
def test_bo_sweep_jobs_never_change_the_outputs(write_circuit, tmp_path,
                                                potential, x_max, points):
    # lambdaJ > 0: each rung is a continuation chain of fast-ground solves,
    # run in one process or spread over three
    circuit = write_circuit("bo.json", kappa=0.5, xi=2.0, lambdaJ=1.5,
                            potential=potential)
    outs = []
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}"
        res = run_cli("bo-sweep", "--circuit", circuit, "--out", out,
                      "--kappa-ladder", "0.6,0.45,0.3", "--x-min", -1.5,
                      "--x-max", x_max, "--x-points", points, "--jobs", jobs)
        assert res.returncode == 0, res.stderr
        assert "identically zero" not in res.stdout
        outs.append(out)
    for name in ("bo_sweep.csv", "bo_sweep.svg", "bo_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("case, verdict", [
    (dict(xi=10.0, lambdaJ=5.0, ladder="0.6,0.45,0.3", span=2.0, points=7,
          potential={"kind": "quadratic", "curvature": 1.0}),
     "converges-nonzero"),
    (dict(xi=1.0, lambdaJ=0.0, ladder="0.5,0.4,0.3", span=1.0, points=5,
          potential=None), "decreasing"),
])
def test_bo_sweep_csv_and_report_carry_one_verdict(write_circuit, tmp_path,
                                                   case, verdict):
    circuit = write_circuit("c.json", kappa=0.5, xi=case["xi"],
                            lambdaJ=case["lambdaJ"],
                            potential=case["potential"])
    out = tmp_path / "out"
    res = run_cli("bo-sweep", "--circuit", circuit, "--out", out,
                  "--kappa-ladder", case["ladder"],
                  "--x-min", -case["span"], "--x-max", case["span"],
                  "--x-points", case["points"])
    assert res.returncode == 0, res.stderr
    meta_line = (out / "bo_sweep.csv").read_text().splitlines()[1]
    assert meta_line.startswith("# meta: ")
    assert json.loads(meta_line[len("# meta: "):])["verdict"] == verdict
    assert read_json(out / "bo_report.json")["verdict"] == verdict
    assert res.stdout.startswith(f"verdict: {verdict}")


def test_bo_sweep_short_ladder_exits_1(write_circuit, tmp_path):
    circuit = write_circuit("bo.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    res = run_cli("bo-sweep", "--circuit", circuit, "--out", tmp_path,
                  "--kappa-ladder", "0.5,0.4")
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


def test_bo_sweep_refuses_an_all_zero_x_grid_before_solving(
        write_circuit, tmp_path, monkeypatch, capsys):
    # in-process: the refusal comes from bo_effective_potential, before a
    # single fast-ground point is solved
    import circadia.cli
    import circadia.spectra

    circuit = write_circuit("bo.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    calls = []
    rung = circadia.spectra._bo_delta

    def counted_rung(kappa, *args, **kwargs):
        calls.append(kappa)
        return rung(kappa, *args, **kwargs)

    monkeypatch.setattr(circadia.spectra, "_bo_delta", counted_rung)
    assert circadia.cli.main(["bo-sweep", "--circuit", circuit,
                              "--out", str(tmp_path / "bo_out"),
                              "--kappa-ladder", "0.6,0.45,0.3",
                              "--x-min", "0", "--x-max", "0",
                              "--x-points", "3"]) == 1
    assert "x grid cannot be all zeros" in capsys.readouterr().err
    assert calls == []


def test_compare_runs_three_routes(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "cmp_out"
    res = run_cli("compare", "--circuit", circuit, "--out", out)
    assert res.returncode == 0, res.stderr
    names = {p.name for p in out.iterdir()}
    assert names == {"compare.csv", "compare.json", "compare.svg",
                     "manifest.json"}
    assert (out / "compare.csv").read_text().startswith("# units:")
    check_manifest(out / "manifest.json", "compare")


def test_compare_splines_the_bo_sweep_rung(write_circuit, tmp_path,
                                           monkeypatch):
    # in-process: the U samples compare's bo_extended column splines are,
    # bit for bit, the kappa row bo-sweep computes on the same x grid
    import circadia.cli
    from circadia.params import read_circuit
    from circadia.spectra import bo_effective_potential

    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    splined = []
    spline = circadia.cli.CubicSpline

    def recording(knots, values, bc_type):
        splined.append(np.array(values))
        return spline(knots, values, bc_type)

    monkeypatch.setattr(circadia.cli, "CubicSpline", recording)
    assert circadia.cli.main(["compare", "--circuit", circuit,
                              "--out", str(tmp_path / "cmp_out")]) == 0
    rc, p = read_circuit(circuit)
    assert rc.kappa == 0.5
    xs = math.sqrt(rc.xi) * np.linspace(-math.pi, math.pi, 41)
    row = bo_effective_potential([0.5, 0.4, 0.3], xs, p, rc.xi,
                                 rc.lambdaJ).U[0]
    (u,) = splined
    # the periodic spline closes the samples on the first one
    assert np.array_equal(u[:-1], row[:-1]) and u[-1] == u[0] == row[0]


def test_compare_at_kappa_zero_keeps_the_reduced_column(write_circuit,
                                                        tmp_path):
    # Cp_F = 0: the two kappa routes refuse in their columns, the classically
    # reduced branch and its box proxy still run, and the command succeeds
    circuit = write_circuit("k0.json", kappa=0.0, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "cmp_out"
    res = run_cli("compare", "--circuit", circuit, "--out", out)
    assert res.returncode == 0, res.stderr
    report = read_json(out / "compare.json")
    columns = report["columns"]
    assert len(columns["classical_reduced"]["levels_EC"]) == 3
    assert columns["bo_extended"] == {
        "error": "ValidationError: kappa must be > 0"}
    assert columns["compact_naive_adiabatic"] == {
        "error": "ValidationError: kappa and xi must be > 0"}
    assert set(report["box_proxy"]) == {"classical_reduced"}
    assert report["box_proxy"]["classical_reduced"]["spacing_ratio"] == \
        pytest.approx(0.5, abs=0.01)
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[-2:] == ['"bo_extended",-1,nan,nan',
                          '"compact_naive_adiabatic",-1,nan,nan']


def test_compare_box_proxy_solves_only_its_end_levels(write_circuit,
                                                      tmp_path, monkeypatch):
    # in-process: the box proxy reports a count and a mean spacing, so its
    # window solves ask Lanczos for a few end levels, never the whole window
    import circadia.cli
    import circadia.spectra

    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    windows, npairs = [], []
    ends = circadia.spectra._window_ends
    pairs = circadia.spectra._shift_invert_pairs

    def counted_ends(v, h, c_kin, lo, hi):
        windows.append(ends(v, h, c_kin, lo, hi))
        return windows[-1]

    def counted_pairs(ab, sigma, n, solve=None):
        if solve is not None:   # the window slices bring their own LU
            npairs.append(n)
        return pairs(ab, sigma, n, solve)

    monkeypatch.setattr(circadia.spectra, "_window_ends", counted_ends)
    monkeypatch.setattr(circadia.spectra, "_shift_invert_pairs", counted_pairs)
    out = tmp_path / "cmp_out"
    assert circadia.cli.main(["compare", "--circuit", circuit,
                              "--out", str(out)]) == 0
    proxy = read_json(out / "compare.json")["box_proxy"]
    levels = [proxy[route][box]["levels_in_window"]
              for route in ("classical_reduced", "bo_extended")
              for box in ("L", "2L")]
    assert levels == [w[0] for w in windows] and len(windows) == 4
    assert min(levels) > 30
    assert 0 < sum(npairs) <= 8 * len(windows)


def test_compare_reduced_column_is_the_public_extended1d_solve(
        write_circuit, tmp_path):
    # compare solves its columns from sampled arrays; on the default
    # 2048-node grid the classical column equals, bit for bit, the public
    # lowest_eigenvalues of the same operator stated as a HamiltonianSpec
    import circadia.cli
    from circadia import HamiltonianSpec, lowest_eigenvalues
    from circadia.params import read_circuit
    from circadia.reduction import _reduced_branch

    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "cmp_out"
    assert circadia.cli.main(["compare", "--circuit", circuit,
                              "--out", str(out)]) == 0
    rc, p = read_circuit(circuit)
    spec = HamiltonianSpec(
        variant="Extended1D", c_kin=0.5,
        v_func=lambda q: _reduced_branch(p, rc, "CompactPhi", q)[2],
        grid={"half_width": math.pi, "n": 2048})
    levels = read_json(out / "compare.json")["columns"]["classical_reduced"]
    assert levels["levels_EC"] == lowest_eigenvalues(spec, 3).eigenvalues \
        .tolist()


@pytest.mark.parametrize("lambdaJ", [0.5, 2.0])
def test_compare_locates_no_minima_and_keeps_its_columns(write_circuit,
                                                         tmp_path,
                                                         monkeypatch,
                                                         lambdaJ):
    # in-process: compare writes no minima, so it never searches for them;
    # the classical column samples the branch as effective_potential does,
    # and past beta_crit (lambdaJ = 2, beta = 2) refuses with its text
    import circadia.cli
    import circadia.reduction
    from circadia import PhysicalRegimeError, effective_potential
    from circadia.params import read_circuit
    from circadia.reduction import _reduced_branch

    def no_minima(*args):
        raise AssertionError("compare located minima")

    circuit = write_circuit("c.json", kappa=0.5, xi=1.0, lambdaJ=lambdaJ)
    monkeypatch.setattr(circadia.reduction, "_locate_minima", no_minima)
    out = tmp_path / "cmp_out"
    assert circadia.cli.main(["compare", "--circuit", circuit,
                              "--out", str(out)]) == 0
    monkeypatch.undo()
    columns = read_json(out / "compare.json")["columns"]
    assert set(columns) == {"classical_reduced", "bo_extended",
                            "compact_naive_adiabatic"}
    assert all(len(columns[name]["levels_EC"]) == 3
               for name in ("bo_extended", "compact_naive_adiabatic"))
    rc, p = read_circuit(circuit)
    grids = [np.linspace(-L, L, n) for L, n in (
        (math.pi, 2048), (10.0 * math.pi, 3143), (20.0 * math.pi, 6284))]
    if lambdaJ > 1.0:
        with pytest.raises(PhysicalRegimeError) as refused:
            effective_potential(p, rc, "CompactPhi", grids[0])
        assert columns["classical_reduced"] == {
            "error": f"PhysicalRegimeError: {refused.value}"}
        assert str(refused.value).startswith("multivalued regime: ")
        return
    assert len(columns["classical_reduced"]["levels_EC"]) == 3
    for q in grids:
        assert np.array_equal(_reduced_branch(p, rc, "CompactPhi", q)[2],
                              effective_potential(p, rc, "CompactPhi", q).V)


def test_dynamics_residual_report(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "dyn_out"
    # the residual is measured after a 5-fast-period transient (t = 31.4),
    # over the same span as the trajectory
    short = tmp_path / "short"
    res = run_cli("dynamics", "--circuit", circuit, "--out", short,
                  "--x0", 0.3, "--t-end", 10.0, "--report", "residual")
    assert res.returncode == 1
    assert "t_end must exceed the 5-fast-period transient" in res.stderr
    assert not short.exists()
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--x0", 0.3, "--t-end", 40.0, "--report", "residual")
    assert res.returncode == 0, res.stderr
    names = {p.name for p in out.iterdir()}
    assert names == {"dynamics_report.json", "manifest.json",
                     "trajectory.csv", "trajectory.svg"}
    report = read_json(out / "dynamics_report.json")
    assert abs(report["energy_drift"]) < 1e-6
    assert math.isfinite(report["y_residual"])
    assert math.isfinite(report["py_residual"])
    assert report["samples"] > 100
    assert (out / "trajectory.csv").read_text().startswith("# units:")
    check_manifest(out / "manifest.json", "dynamics")


@pytest.mark.parametrize("report", ["none", "residual", "shadow"])
def test_dynamics_report_past_the_fold_exits_2(write_circuit, tmp_path,
                                               report):
    # the default start sits on the slow manifold, undefined past the fold
    circuit = write_circuit("fold.json", kappa=0.5, xi=1.0, lambdaJ=2.0)
    out = tmp_path / "out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--report", report)
    assert res.returncode == 2
    assert res.stderr.startswith("refused (physical regime): ")
    assert res.stderr.rstrip().endswith("beta_crit=1")
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_dynamics_past_the_fold_runs_from_a_given_y0(write_circuit, tmp_path):
    circuit = write_circuit("fold.json", kappa=0.5, xi=1.0, lambdaJ=2.0)
    out = tmp_path / "out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--y0", "0.2", "--t-end", "20")
    assert res.returncode == 0, res.stderr
    first = (out / "trajectory.csv").read_text().splitlines()[2]
    assert [float(v) for v in first.split(",")[:5]] == [0.0, 1.0, 0.0, 0.2,
                                                        0.0]
    check_manifest(out / "manifest.json", "dynamics")


def test_dynamics_at_kappa_zero_needs_a_horizon(write_circuit, tmp_path):
    # Cp_F = 0 and EJ_J = 0: two slow periods are infinite, so the default
    # horizon is refused; a given one runs from y = kappa*eta1(x0) = 0
    circuit = write_circuit("k0.json", kappa=0.0, xi=1.0, lambdaJ=0.0)
    out = tmp_path / "out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out)
    assert res.returncode == 1
    assert res.stderr.startswith("error: kappa must be > 0")
    assert "Traceback" not in res.stderr
    assert not out.exists()
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--t-end", "2")
    assert res.returncode == 0, res.stderr
    first = (out / "trajectory.csv").read_text().splitlines()[2]
    assert [float(v) for v in first.split(",")[:5]] == [0.0, 1.0, 0.0, 0.0,
                                                        0.0]
    check_manifest(out / "manifest.json", "dynamics")


def test_dynamics_without_coupling_needs_a_horizon(write_circuit, tmp_path):
    # EJ_J = 0: the slow mode is free and two slow periods are infinite, so
    # the default horizon is refused before any step; a given one runs
    circuit = write_circuit("ej0.json", kappa=0.5, xi=1.0, lambdaJ=0.0)
    out = tmp_path / "out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out)
    assert res.returncode == 1
    assert res.stderr.startswith("error: beta must be > 0")
    assert "Traceback" not in res.stderr
    assert not out.exists()
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--t-end", "2")
    assert res.returncode == 0, res.stderr
    check_manifest(out / "manifest.json", "dynamics")


def test_dynamics_refuses_a_shadow_report_without_a_slow_period(
        write_circuit, tmp_path, monkeypatch, capsys):
    # in-process: the shadow report states the slow period, which kappa = 0
    # and lambdaJ = 0 lack, so the run is refused before a single step
    import circadia.cli

    def no_steps(*args, **kwargs):
        raise AssertionError("integrated before the refusal")

    monkeypatch.setattr(circadia.cli, "integrate", no_steps)
    for name, kappa, lambdaJ, error in (("k0.json", 0.0, 0.5, "kappa"),
                                        ("ej0.json", 0.5, 0.0, "beta")):
        circuit = write_circuit(name, kappa=kappa, xi=1.0, lambdaJ=lambdaJ)
        out = tmp_path / f"{error}_out"
        assert circadia.cli.main(["dynamics", "--circuit", circuit,
                                  "--out", str(out), "--t-end", "2",
                                  "--report", "shadow"]) == 1
        assert f"{error} must be > 0" in capsys.readouterr().err
        assert not out.exists()


def test_dynamics_refuses_a_residual_report_before_integrating(
        write_circuit, tmp_path, monkeypatch, capsys):
    # in-process: the residual probe needs kappa > 0 and a t_end past its
    # 5-fast-period transient, so either is refused before a trajectory,
    # the command's or the probe's own, is integrated
    import circadia.cli
    import circadia.dynamics

    calls = []
    integrate = circadia.dynamics.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(circadia.cli, "integrate", counted)
    monkeypatch.setattr(circadia.dynamics, "integrate", counted)
    for name, kappa, lambdaJ, t_end, error in (
            ("k0.json", 0.0, 0.0, "40", "kappa must be > 0"),
            ("sub.json", 0.5, 0.5, "10",
             "t_end must exceed the 5-fast-period transient")):
        circuit = write_circuit(name, kappa=kappa, xi=1.0, lambdaJ=lambdaJ)
        out = tmp_path / f"{name}_out"
        assert circadia.cli.main(["dynamics", "--circuit", circuit,
                                  "--out", str(out), "--t-end", t_end,
                                  "--report", "residual"]) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("report", ["none", "residual", "shadow"])
def test_dynamics_reports_on_a_table_narrower_than_the_default_scan(
        write_circuit, tmp_path, report):
    # a -cos table on [-12, 12]: the regime checks scan its support, and the
    # shadow's force table stays on it
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{x!r},{-math.cos(x)!r}\n"
                             for x in np.linspace(-12.0, 12.0, 3001).tolist()))
    circuit = write_circuit("custom.json", kappa=0.2, xi=1.0, lambdaJ=0.5,
                            potential={"kind": "custom_csv",
                                       "path": str(table)})
    out = tmp_path / "dyn_out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--dt", 1e-3, "--report", report)
    assert res.returncode == 0, res.stderr
    report_doc = read_json(out / "dynamics_report.json")
    assert all(math.isfinite(v) for v in report_doc.values())
    check_manifest(out / "manifest.json", "dynamics")


def test_dynamics_coarse_step_exits_3(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    res = run_cli("dynamics", "--circuit", circuit, "--out", tmp_path,
                  "--x0", 0.3, "--t-end", 5.0, "--dt", 0.04)
    assert res.returncode == 3
    assert "did not converge" in res.stderr
    # a fresh --out is never created by a run that did not converge
    out = tmp_path / "out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--x0", 0.3, "--t-end", 5.0, "--dt", 0.04)
    assert res.returncode == 3
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--t-end", "nan"), ("--t-end", "inf"), ("--dt", "nan"),
    ("--x0", "nan"), ("--px0", "inf"), ("--y0", "-inf"), ("--py0", "nan"),
])
def test_dynamics_refuses_non_finite_arguments(write_circuit, tmp_path, flag,
                                               value):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "dyn_out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--t-end", 5.0, f"{flag}={value}")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(f"error: {flag} must be finite")
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bo-sweep", "--x-min=nan"], "--x-min must be finite"),
    (["bo-sweep", "--x-max=-inf"], "--x-max must be finite"),
    (["bo-sweep", "--x-points=0"], "--x-points must be >= 1"),
    (["bo-sweep", "--grid=-5"], "--grid must be >= 0"),
    (["bo-sweep", "--jobs=0"], "--jobs must be >= 1"),
    (["bo-sweep", "--jobs=-1"], "--jobs must be >= 1"),
    (["bo-sweep", "--grid=1"], "1D grids need >= 128 points"),
    (["bo-sweep", "--grid=127"], "1D grids need >= 128 points"),
    (["foster", "--omega-min=nan"], "--omega-min must be finite"),
    (["foster", "--omega-max=inf"], "--omega-max must be finite"),
    (["foster", "--points=0"], "--points must be >= 1"),
    (["compare", "--grid=100"], "--grid must be >= 128"),
], ids=["x-min-nan", "x-max-inf", "x-points-0", "grid-negative", "jobs-0",
        "jobs-negative", "grid-1", "grid-127", "omega-min-nan",
        "omega-max-inf", "points-0", "compare-grid-100"])
def test_bo_sweep_and_foster_refuse_bad_numeric_flags(write_circuit, tmp_path,
                                                      argv, message):
    if argv[0] == "compare":
        argv = argv + ["--circuit", write_circuit(
            "cmp.json", kappa=0.5, xi=1.0, lambdaJ=0.5)]
    elif argv[0] == "bo-sweep":
        circuit = write_circuit("bo.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
        argv = argv + ["--circuit", circuit, "--kappa-ladder", "0.6,0.45,0.3"]
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"c_inf": 1.0,
                                     "resonances": [[0.5, 3.0]]}))
        argv = argv + ["--model", model]
    out = tmp_path / "out"
    res = run_cli(*argv, "--out", out)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(f"error: {message}")
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, files, message", [
    (["bo-sweep", "--kappa-ladder", "0.6,abc"], {}, "bad kappa ladder"),
    (["bo-sweep", "--kappa-ladder", "0.6,0.45"], {},
     "kappa ladder needs >= 3 entries"),
    (["bo-sweep", "--kappa-ladder", "0.3,0.45,0.6"], {},
     "kappa ladder must be strictly decreasing"),
    (["foster"], {}, "foster needs --input samples.csv or --model"),
    (["foster", "--model", "m.json"], {"m.json": "{c_inf: 1"},
     "model file"),
    (["foster", "--model", "m.json"], {"m.json": '{"resonances": []}'},
     "bad model file"),
    (["foster", "--input", "s.csv"],
     {"s.csv": "omega,ImY\n1.0,2.0\n1.5,oops\n"}, "malformed CSV row"),
], ids=["ladder-not-a-number", "ladder-short", "ladder-increasing",
        "foster-no-input", "model-not-json", "model-without-c-inf",
        "samples-malformed-row"])
def test_bo_sweep_and_foster_refuse_bad_input_before_out_exists(
        write_circuit, tmp_path, argv, files, message):
    # --out is made only once the inputs are read and the solve succeeded
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    if argv[0] == "bo-sweep":
        argv += ["--circuit", write_circuit("bo.json", kappa=0.5, xi=1.0,
                                            lambdaJ=0.5)]
    out = tmp_path / "out"
    res = run_cli(*argv, "--out", out)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(f"error: {message}")
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bo-sweep", "--circuit", "c.json"],
    ["compare", "--circuit", "c.json", "--grid", "abc"],
    ["reduce", "--circuit", "c.json", "--basis", "torus"],
    ["frobnicate"],
], ids=["ladder-missing", "grid-not-int", "basis-unknown", "no-such-command"])
def test_usage_errors_exit_1_not_argparse_2(argv, capsys):
    # exit 2 is reserved for physical-regime refusals
    import circadia.cli

    with pytest.raises(SystemExit) as exc:
        circadia.cli.main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


def test_foster_eval_then_fit_round_trip(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(
        {"c_inf": 1.0, "l_zero": None, "resonances": [[0.5, 3.0]]}))
    eval_out = tmp_path / "eval_out"
    res = run_cli("foster", "--model", model_path, "--out", eval_out,
                  "--omega-min", 0.5, "--omega-max", 6.0, "--points", 200)
    assert res.returncode == 0, res.stderr
    names = {p.name for p in eval_out.iterdir()}
    assert names == {"admittance.csv", "admittance.svg", "manifest.json"}
    check_manifest(eval_out / "manifest.json", "foster")
    rows = []
    for line in (eval_out / "admittance.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("omega"):
            continue
        w, v = line.split(",")
        rows.append((float(w), float(v)))
    keep = np.array([r for r in rows if math.isfinite(r[1])])
    assert keep.shape[0] >= 150

    samples_path = tmp_path / "samples.csv"
    with open(samples_path, "w", encoding="utf-8") as f:
        f.write("omega,ImY\n")
        for w, v in keep:
            f.write(f"{float(w)!r},{float(v)!r}\n")
    fit_out = tmp_path / "fit_out"
    res = run_cli("foster", "--input", samples_path, "--out", fit_out,
                  "--resonances", 1)
    assert res.returncode == 0, res.stderr
    names = {p.name for p in fit_out.iterdir()}
    assert names == {"foster_fit.svg", "foster_model.json",
                     "foster_report.json", "manifest.json"}
    check_manifest(fit_out / "manifest.json", "foster")
    fitted = read_json(fit_out / "foster_model.json")
    assert fitted["c_inf"] == pytest.approx(1.0, rel=1e-12)
    assert fitted["l_zero"] is None
    (el, om), = fitted["resonances"]
    assert om == pytest.approx(3.0, rel=1e-12)
    assert el == pytest.approx(0.5, rel=1e-12)
    report = read_json(fit_out / "foster_report.json")
    assert report["rms_residual"] < 1e-12
    assert report["reactance_slope_positive"] is True


def test_foster_empty_samples_exits_1(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("omega,ImY\n")
    res = run_cli("foster", "--input", bad, "--out", tmp_path,
                  "--resonances", 1)
    assert res.returncode == 1
    assert "no admittance samples" in res.stderr


def test_foster_wrong_resonance_count_exits_1(tmp_path):
    from circadia import FosterModel, eval_admittance

    model = FosterModel(c_inf=1.0, resonances=((0.5, 3.0),))
    omega = np.linspace(0.5, 6.0, 180)
    omega = omega[np.abs(omega - 3.0) > 0.05]
    vals = eval_admittance(model, omega).imag
    path = tmp_path / "one_res.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("omega,ImY\n")
        for w, v in zip(omega, vals):
            f.write(f"{float(w)!r},{float(v)!r}\n")
    res = run_cli("foster", "--input", path, "--out", tmp_path,
                  "--resonances", 2)
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


FOOTPRINT_SCRIPT = """
import sys
import circadia, circadia.cli


def scipy_loaded(prefixes=("scipy",)):
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy"
                  and name.startswith(prefixes))


def run(argv, k, expect=0):
    code = circadia.cli.main(argv + ["--out", out + str(k)])
    assert code == expect, (argv, code)


circuit, fold, custom, samples, out = sys.argv[1:]
print("footprint import:", *scipy_loaded())
# the routes that never diagonalize
run(["reduce", "--circuit", circuit, "--grid", "256"], 0)
run(["reduce", "--circuit", fold, "--grid", "256"], 1, expect=2)
for k, path in enumerate((circuit, custom), 2):
    run(["dynamics", "--circuit", path, "--t-end", "2", "--dt", "1e-3",
         "--report", "shadow"], k)
run(["foster", "--input", samples, "--resonances", "1"], 4)
print("footprint classical:", *scipy_loaded())
run(["bo-sweep", "--circuit", circuit, "--kappa-ladder", "0.6,0.45,0.3",
     "--x-min", "-1", "--x-max", "1", "--x-points", "3"], 5)
run(["compare", "--circuit", circuit], 6)
print("footprint spectral:", *scipy_loaded(("scipy.interpolate", "scipy.optimize",
                                  "scipy.special")))
names = {}
exec("from circadia import *", names)
print("footprint unbound:", *sorted(set(circadia.__all__) - set(names)),
      *sorted(set(circadia.__all__) - set(dir(circadia))))
"""


def test_cli_routes_never_import_interpolate_optimize_or_special(
        write_circuit, tmp_path):
    # start-up cost: each command pays for every module it imports. The
    # routes that never diagonalize load no scipy at all; bo-sweep and
    # compare load its eigensolvers, never interpolate, optimize or special
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    fold = write_circuit("sup.json", kappa=0.5, xi=1.0, lambdaJ=2.0)
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{x!r},{-math.cos(x)!r}\n"
                             for x in np.linspace(-12.0, 12.0, 601).tolist()))
    custom = write_circuit("custom.json", kappa=0.2, xi=1.0, lambdaJ=0.5,
                           potential={"kind": "custom_csv",
                                      "path": str(table)})
    samples = tmp_path / "samples.csv"
    omega = np.linspace(0.5, 6.0, 60)
    omega = omega[np.abs(omega - 3.0) > 0.1]
    samples.write_text("omega,ImY\n" + "".join(
        f"{w!r},{w + w / (0.5 * (9.0 - w * w))!r}\n"
        for w in omega.tolist()))
    res = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, circuit, fold, custom,
         str(samples), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    # the commands print too; each check prints one tagged line
    assert [line for line in res.stdout.splitlines()
            if line.startswith("footprint ")] == [
        "footprint import:", "footprint classical:", "footprint spectral:",
        "footprint unbound:"]


def test_compare_box_proxy_records_a_sparse_window_and_a_failed_box(
        write_circuit, tmp_path, monkeypatch, capsys):
    # in-process: the classical column's L box holds one level, the
    # bo_extended proxy fails; both are recorded and compare succeeds
    import circadia.cli
    import circadia.spectra
    from circadia import ConvergenceError

    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    ends = circadia.spectra._window_ends
    calls = []

    def scripted_ends(v, h, c_kin, lo, hi):
        calls.append(len(v))
        if len(calls) == 1:
            return 1, lo, lo
        if len(calls) == 3:
            raise ConvergenceError("scripted count failure")
        return ends(v, h, c_kin, lo, hi)

    monkeypatch.setattr(circadia.spectra, "_window_ends", scripted_ends)
    out = tmp_path / "cmp_out"
    assert circadia.cli.main(["compare", "--circuit", circuit,
                              "--out", str(out)]) == 0
    # the boxes' node counts, 2L/0.02 + 1 at L = 10 pi and 20 pi
    assert calls == [3143, 6284, 3143]
    proxy = read_json(out / "compare.json")["box_proxy"]
    reduced = proxy["classical_reduced"]
    assert reduced["L"] == {"half_width": 10.0 * math.pi,
                            "error": "fewer than 2 levels"}
    assert reduced["2L"]["levels_in_window"] > 30
    assert "spacing_ratio" not in reduced
    assert proxy["bo_extended"] == {
        "error": "ConvergenceError: scripted count failure"}
    assert "box proxy" not in capsys.readouterr().out


def test_dynamics_starts_from_a_given_fast_coordinate(write_circuit,
                                                      tmp_path):
    circuit = write_circuit("dyn.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "dyn_out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--x0", "0.4", "--y0", "0.3", "--py0", "-0.1",
                  "--t-end", "2")
    assert res.returncode == 0, res.stderr
    first = (out / "trajectory.csv").read_text().splitlines()[2]
    assert [float(v) for v in first.split(",")[:5]] == [0.0, 0.4, 0.0, 0.3,
                                                        -0.1]
    params = read_json(out / "manifest.json")["parameters"]
    assert (params["y0"], params["py0"]) == (0.3, -0.1)
