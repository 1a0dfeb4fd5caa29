"""End-to-end runs of the command line interface in subprocesses.

Every test drives `python -m circadia.cli` the way a user would and checks
exit codes, the file sets written to --out, and the manifest contract.
"""

from __future__ import annotations

import json
import math
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
    doc = read_json(path)
    assert set(doc) == MANIFEST_KEYS
    assert doc["command"] == command
    assert doc["version"] == "0.1.0"
    assert doc["wall_time_s"] is None
    assert isinstance(doc["identity"], str) and doc["identity"]
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
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = run_cli("reduce", "--circuit", circuit, "--out", out)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for name in ("potential.csv", "reduce_report.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_bo_sweep_short_ladder_exits_1(write_circuit, tmp_path):
    circuit = write_circuit("bo.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    res = run_cli("bo-sweep", "--circuit", circuit, "--out", tmp_path,
                  "--kappa-ladder", "0.5,0.4")
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


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


def test_dynamics_residual_report(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    out = tmp_path / "dyn_out"
    res = run_cli("dynamics", "--circuit", circuit, "--out", out,
                  "--x0", 0.3, "--t-end", 10.0, "--report", "residual")
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


def test_dynamics_coarse_step_exits_3(write_circuit, tmp_path):
    circuit = write_circuit("sub.json", kappa=0.5, xi=1.0, lambdaJ=0.5)
    res = run_cli("dynamics", "--circuit", circuit, "--out", tmp_path,
                  "--x0", 0.3, "--t-end", 5.0, "--dt", 0.04)
    assert res.returncode == 3
    assert "did not converge" in res.stderr


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
    fitted = read_json(fit_out / "foster_model.json")
    assert fitted["c_inf"] == pytest.approx(1.0, rel=1e-4)
    assert fitted["l_zero"] is None
    (el, om), = fitted["resonances"]
    assert om == pytest.approx(3.0, rel=1e-6)
    assert el == pytest.approx(0.5, rel=1e-4)
    # eval grid runs within 0.011 of the pole, so |Im Y| reaches ~90 and
    # the absolute rms sits well above the wide-margin fits elsewhere
    report = read_json(fit_out / "foster_report.json")
    assert report["rms_residual"] < 1e-4
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
