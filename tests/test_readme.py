"""README's code runs as written.

Its python blocks run in order in one namespace, and an expression whose
trailing comment starts with a Python literal must evaluate to it. Its
Command line block runs through cli.main, with its JSON block as the
benchmark config.
"""

import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lportho.cli import main
from lportho.signal_decomposition import Signal, write_signal_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def commented_value(line):
    """The literal a '  # ' comment starts with, or None when it starts with none."""
    comment = line.partition("  # ")[2]
    if not comment:
        return None
    try:
        return ast.literal_eval(comment.split()[0].rstrip(":,"))
    except (ValueError, SyntaxError):
        return None


def test_python_blocks_run_and_match_their_comments():
    namespace = {}
    checked = 0
    for block in blocks("python"):
        lines = block.splitlines()
        for node in ast.parse(block).body:
            want = commented_value(lines[node.end_lineno - 1])
            if isinstance(node, ast.Expr):
                got = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
                if want is not None:
                    assert got == (pytest.approx(want, rel=1e-12) if isinstance(want, float) else want), ast.unparse(node)
                    checked += 1
            else:
                exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    assert checked >= 10


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    for name in ("f.csv", "g.csv"):
        np.savetxt(name, rng.standard_normal(16))
    write_signal_csv("signal.csv", Signal(rng.standard_normal(256)))
    (config,) = blocks("json")
    Path("bench.json").write_text(config)
    (commands,) = [b for b in blocks("sh") if b.startswith("lportho ")]
    for line in commands.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "lportho"
        assert main(argv[1:]) == 0, line
        assert capsys.readouterr().err == "", line
    for out_dir in ("out", "audit", "bench", "spec"):
        assert (tmp_path / out_dir / "manifest.json").is_file()
