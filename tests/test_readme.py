import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import circadia

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)


def test_the_readme_library_example_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["levels"].shape == (5,)


def test_the_readme_cli_examples_run(tmp_path):
    # every `circadia ...` line of the CLI block, on the README's own
    # circuit file, a supercritical copy of it (beta about 1.9 > 1), and a
    # one-resonance model with samples of it
    block, = [b for b in _blocks("sh") if "circadia " in b]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("circadia ")]
    assert len(lines) == 7
    circuit, = _blocks("json")
    (tmp_path / "circuit.json").write_text(circuit)
    supercritical = dict(json.loads(circuit), EJ_GHz=120.0)
    (tmp_path / "supercritical.json").write_text(json.dumps(supercritical))
    (tmp_path / "model.json").write_text(json.dumps(
        {"c_inf": 1.0, "l_zero": None, "resonances": [[0.5, 3.0]]}))
    omegas = [0.5 + 0.1 * i for i in range(56) if abs(0.1 * i - 2.5) > 0.05]
    (tmp_path / "samples.csv").write_text("omega,ImY\n" + "".join(
        f"{w!r},{w + w / (0.5 * (9.0 - w * w))!r}\n" for w in omegas))
    # the commands run inside tmp_path, so the package path goes absolute
    package_root = str(pathlib.Path(circadia.__file__).resolve().parents[1])
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, *filter(None, paths)]))
    for line in lines:
        argv = shlex.split(line)[1:]
        res = subprocess.run([sys.executable, "-m", "circadia.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=600)
        expected = 2 if "supercritical.json" in argv else 0
        assert res.returncode == expected, (line, res.stderr)
        out = tmp_path / argv[argv.index("--out") + 1]
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert {p.name for p in out.iterdir()} == \
            set(outputs) | {"manifest.json"}
