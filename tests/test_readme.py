"""The README's code blocks run as written.

Every value the "Library in one minute" block's comments print is what
the code gives, to the printed digits. A value's comment is the one on
the last line of its expression or, when that line has none, the
comment lines right under it. A number marked `~` is a Monte Carlo
estimate described only loosely and is not checked.

Every command of the "CLI" block exits 0 and writes exactly the files
its manifest lists, plus the manifest; a command without --out writes
nothing.
"""

from __future__ import annotations

import ast
import io
import os
import re
import shlex
import tokenize

import numpy as np

from crn_sense.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRINTED = re.compile(r"(?<![~\d.])\d+\.\d+")


def library_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library in one minute", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def cli_lines() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_block_prints_what_it_computes():
    source = library_block()
    lines = source.splitlines()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = node.end_lineno
        comment = comments.get(line, "")
        while not comment and line < len(lines) and lines[line].lstrip().startswith("#"):
            line += 1
            comment += comments[line]
        printed = PRINTED.findall(comment)
        if not printed:
            continue
        got = np.ravel(np.asarray(value, dtype=float)).tolist()
        assert len(got) == len(printed), (ast.unparse(node), got, printed)
        shown = [f"{v:.{len(p.partition('.')[2])}f}" for v, p in zip(got, printed)]
        assert shown == printed, ast.unparse(node)
        checked.extend(printed)
    # pf and pd, the idle tails, the resolved pair, lambda_opt and roc_table's pd
    assert checked == ["0.0550", "0.0574", "0.2851", "0.0550", "0.1653", "0.1697", "12.375", "0.1697", "0.1708"]


def test_cli_block_writes_what_its_manifests_list(tmp_path, monkeypatch):
    prefix = "python3 -m crn_sense.cli "
    lines = cli_lines()
    assert lines and all(line.startswith(prefix) for line in lines)
    commands = [shlex.split(line.removeprefix(prefix)) for line in lines]
    assert ["bisect", "--energy", "12.5"] in commands  # the one without --out
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        before = set(os.listdir())
        assert main(argv) == 0, argv
        written = set(os.listdir()) - before
        if "--out" not in argv:
            assert written == set(), argv
            continue
        manifest = argv[argv.index("--out") + 1] + ".manifest.txt"
        with open(manifest, encoding="utf-8") as fh:
            (outputs,) = (line for line in fh.read().splitlines() if line.startswith("outputs="))
        assert written == {manifest, *outputs.removeprefix("outputs=").split(";")}, argv
