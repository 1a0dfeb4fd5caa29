"""The scripts that show a change keeps its outputs and cuts its code:
tools/bench_outputs.py (the comparison of two output trees) and
tools/code_lines.py (the line counter). No benchmark workload runs."""

import importlib.util
import math
import pathlib
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_outputs = _load("bench_outputs")
code_lines = _load("code_lines")


@pytest.mark.parametrize("a, b, expected", [
    (["1.0", "nan"], ["1.0", "2.0"], (math.inf, math.inf)),
    ([float("nan"), 3.0], [float("nan"), 3.0], (0.0, 0.0)),
    (["nan", "x"], ["nan", "x"], (0.0, 0.0)),
    ([1.0, 2.0], [1.0, 2.5], (0.5, 0.2)),
    ([1.0, 2.0], [1.0], None),
    (["1.0", "left"], ["1.0", "right"], None),
])
def test_largest_difference(a, b, expected):
    assert bench_outputs._largest_difference(a, b) == expected


def test_compare_trees_names_what_differs(tmp_path, capsys):
    new, old = tmp_path / "new", tmp_path / "old"
    files = {
        "same.txt": ("kept\n", "kept\n"),
        "run/levels.csv": ("x,y\n1.0,2.0\n3.0,4.0\n",
                           "x,y\n1.0,2.0\n3.0,5.0\n"),
        "run/list.json": ('{"a": [1, 2, 3], "b": "s"}',
                          '{"a": [1, 2, 4], "b": "s"}'),
        "run/shape.json": ('{"a": [1, 2, 3]}', '{"a": [1, 2]}'),
        "run/format.csv": ("x\n1.0\n", "x\n1.00\n"),
        "notes.txt": ("one\n", "two\n"),
        "only_new.txt": ("new\n", None),
        "only_old.txt": (None, "old\n"),
    }
    for rel, texts in files.items():
        for root, text in zip((new, old), texts):
            if text is not None:
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
    bench_outputs.compare_trees(str(new), str(old))
    assert capsys.readouterr().out.splitlines() == [
        "notes.txt: differs (not a table)",
        f"only_new.txt: only in {new}",
        f"only_old.txt: only in {old}",
        "run/format.csv: differs in its text, not in its values",
        "run/levels.csv y: max abs 1, max rel 0.2",
        "run/list.json a: max abs 1, max rel 0.25",
        "run/shape.json a: differs (shape or text)",
        "1 of 8 files byte-identical",
    ]


def test_code_lines_counts_code_not_docs_comments_or_blanks():
    source = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(a,
      b):
    """Function docstring."""
    x = (a +
         b)

    return os.sep, x


class C:
    """Class docstring."""
    y = """a string that is not a docstring"""
'''
    # import, the two-line def, the two-line x, return, class, y
    assert code_lines.code_lines(source) == 8


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=repo, check=True, capture_output=True)


def test_code_lines_at_a_revision(tmp_path, monkeypatch, capsys):
    repo, outside = tmp_path / "repo", tmp_path / "outside.py"
    repo.mkdir()
    (repo / "kept.py").write_text("a = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "kept.py")
    _git(repo, "commit", "-q", "-m", "one file")
    (repo / "kept.py").write_text("a = 1\nb = 2\n")
    (repo / "new.py").write_text("c = 3\n")
    outside.write_text("d = 4\n")
    monkeypatch.chdir(repo)
    # a file that did not exist at the revision counts 0 there
    assert code_lines.main(["--rev", "HEAD", "kept.py", "new.py"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "     1       2      +1  kept.py",
        "     0       1      +1  new.py",
        "     1       3      +2  total",
    ]
    # a path outside the work tree has no count at the revision
    assert code_lines.main(["--rev", "HEAD", "kept.py", str(outside)]) == 1
    out, err = capsys.readouterr()
    assert "total" not in out and "outside repository" in err
