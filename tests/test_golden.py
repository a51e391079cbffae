"""The paper tables and small CLI outputs match their golden record exactly.

tests/golden/paper_tables.json pins every paper-grid cell's status,
iteration count and replacements, p-tilde at each grid n, the stdout of
the CLI commands on seeded inputs, and the sha256 of every file that
decompose, audit, precond-bench and spectrum write but the two that
regenerate.UNPINNED names and says why. A change that moves any of them
regenerates the file with tests/golden/regenerate.py and says what moved.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def test_paper_tables_and_cli_outputs_match_the_golden_record():
    golden = json.loads((GOLDEN_DIR / "paper_tables.json").read_text(encoding="utf-8"))
    now = regenerate.record()
    moved = regenerate.moved(golden, now)
    assert not moved, (
        f"{len(moved)} golden entries moved (recorded with {golden['versions']}, run with {now['versions']}):\n"
        + "\n".join(moved)
    )


def test_the_record_covers_both_grids_with_correction_off_and_on():
    golden = json.loads((GOLDEN_DIR / "paper_tables.json").read_text(encoding="utf-8"))
    assert len(golden["cells"]) == 2 * 2 * len(regenerate.N_LIST) * (len(regenerate.P_LIST) + 1) == 128
    assert len(golden["p_tilde"]) == 8
    assert set(golden["versions"]) == {"numpy", "scipy"}


def test_the_record_covers_every_file_writing_command():
    golden = json.loads((GOLDEN_DIR / "paper_tables.json").read_text(encoding="utf-8"))
    commands = {key.split(":")[0].split()[0] for key in golden["files"]}
    assert commands == {"decompose", "audit", "precond-bench", "spectrum"}
    assert not any(key.endswith(regenerate.UNPINNED) for key in golden["files"])
    assert {"audit", *(f"spectrum {label}" for label in regenerate.SPECTRA)} <= set(golden["stdout"])
