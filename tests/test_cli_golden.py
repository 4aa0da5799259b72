"""Byte-pinned command-line output: stdout, stderr and the exit code of
``bistone props`` for every suite and of ``bistone search`` at bound 4.

The expected text under ``tests/golden/`` was recorded before the
simplifications that it guards, so any change to a verdict, a witness or a
message shows up here as a diff.  Regenerate a file only when an output
change is intended, and say so in the change log.
"""

from pathlib import Path

import pytest

from bistone.cli import main

GOLDEN = Path(__file__).parent / "golden"

SUITES = ("lattice_core", "dlattice", "ideals_frames", "bitop", "duality")
COMMANDS = {f"props_{suite}": ["props", "--suite", suite] for suite in SUITES}
COMMANDS.update(
    {f"search_{q}": ["search", "--conjecture", q, "--bounds", "4"] for q in ("Q1", "Q2")}
)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, capsys):
    assert main(COMMANDS[name]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
