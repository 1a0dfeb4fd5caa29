"""Count the code lines of Python files.

    python tools/code_lines.py [--rev REV] src/circadia/*.py

A code line is a line that holds a token other than a comment or a
docstring (the leading string of a module, class or function body), so
blank lines, comments and docstrings do not count, and a statement split
over several lines counts each of them. Prints each file's count and the
total. With --rev, each line shows the file's count at the git revision
REV (read with ``git show REV:path``; 0 where the file did not exist
there), the working tree's count and the difference; a path outside the
git work tree is refused with exit 1.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one file's source."""
    doc = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def _count_at(rev: str, path: str) -> int | None:
    """Code lines of path at a git revision, 0 where it does not exist
    there; None, with git's message on stderr, where git cannot look the
    path up (one outside the work tree)."""
    rel = f"./{os.path.relpath(path)}"
    listed = _git("ls-tree", "--name-only", rev, "--", rel)
    if listed.returncode != 0:
        print(listed.stderr.strip(), file=sys.stderr)
        return None
    return code_lines(_git("show", f"{rev}:{rel}").stdout) \
        if listed.stdout else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    parser.add_argument("--rev", help="a git revision to count beside the "
                        "working tree")
    args = parser.parse_args(argv)
    if args.rev is not None:
        verified = _git("rev-parse", "--verify", "--quiet",
                        f"{args.rev}^{{commit}}")
        if verified.returncode != 0:
            print(f"not a git revision: {args.rev}", file=sys.stderr)
            return 1
        print(f"{args.rev[:6]:>6}    tree    diff")
    totals = [0, 0]
    for path in args.paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        if args.rev is None:
            totals[1] += n
            print(f"{n:6d}  {path}")
            continue
        old = _count_at(args.rev, path)
        if old is None:
            return 1
        totals[0] += old
        totals[1] += n
        print(f"{old:6d}  {n:6d}  {n - old:+6d}  {path}")
    old, n = totals
    print(f"{n:6d}  total" if args.rev is None
          else f"{old:6d}  {n:6d}  {n - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
