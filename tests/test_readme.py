"""The README's "Library in one minute" block runs, and every value its
comments print is what the code gives, to the printed digits.

A value's comment is the one on the last line of its expression or,
when that line has none, the comment lines right under it. A number
marked `~` is a Monte Carlo estimate described only loosely and is not
checked.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRINTED = re.compile(r"(?<![~\d.])\d+\.\d+")


def library_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library in one minute", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
