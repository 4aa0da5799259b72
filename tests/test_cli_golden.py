"""Byte-pinned command-line output: stdout, stderr and the exit code of
``bistone props`` for every suite, of ``bistone search`` at bounds 1-4 (and
Q2 at bound 5, whose counterexample is its 74th structure; Q2 at bounds 2
and 3 ends exhausted after its structures pass ``spatiality_check``), and of
``validate``, ``spec``, ``clop`` and ``roundtrip`` on the small files in
``tests/golden/inputs/``; and the sha256 of each file ``bistone gen`` writes
for every ``--kind`` at bound 4.

The inputs are a d-Boolean algebra (λ of the down-sets of the three-element
poset with one bottom and two maximal elements), the doubled three-chain as
a d-lattice, that algebra with a dagger that is not order reversing and with
one con or tot bit flipped (each still a valid d-lattice), its Stone space,
a two-point space that is not Stone, and the two non-distributive lattices
N5 (the pentagon) and M3 (the diamond).  The failing inputs pin the
validator's axiom and witness, and exit code 1.

The expected text under ``tests/golden/`` was recorded before the
simplifications and kernels that it guards, so any change to a verdict, a
witness or a message shows up here as a diff.  Regenerate a file only when
an output change is intended, and say so in the change log.
"""

import hashlib
from pathlib import Path

import pytest

from bistone.cli import GEN_KINDS, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

SUITES = ("lattice_core", "dlattice", "ideals_frames", "bitop", "duality")
# name -> (argv, exit code)
COMMANDS = {f"props_{suite}": (["props", "--suite", suite], 0) for suite in SUITES}
COMMANDS.update(
    {f"search_{q}": (["search", "--conjecture", q, "--bounds", "4"], 0) for q in ("Q1", "Q2")}
)
COMMANDS["search_Q2_bound5"] = (["search", "--conjecture", "Q2", "--bounds", "5"], 0)
COMMANDS.update(
    {
        f"search_{q}_bound{bound}": (["search", "--conjecture", q, "--bounds", str(bound)], 0)
        for q in ("Q1", "Q2")
        for bound in (1, 2, 3)
    }
)
for command, cases in (
    ("validate", {"dboolean": 0, "dlattice": 0, "dboolean_bad_dagger": 1, "dboolean_bad_con": 1, "dboolean_bad_tot": 1, "space_not_stone": 0, "lattice_n5": 1, "lattice_m3": 1}),
    ("spec", {"dboolean": 0, "dlattice": 0, "dboolean_bad_dagger": 1, "dboolean_bad_con": 1, "dboolean_bad_tot": 1}),
    ("clop", {"space_stone": 0, "space_not_stone": 0}),
    ("roundtrip", {"dboolean": 0, "dboolean_bad_dagger": 1, "space_stone": 0, "space_not_stone": 1}),
):
    for stem, code in cases.items():
        COMMANDS[f"{command}_{stem}"] = ([command, "--in", str(INPUTS / f"{stem}.json")], code)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, capsys):
    """Each command once; ``validate`` and ``spec`` twice in one process,
    the second run reading any side verdicts the first kept on the shared
    coordinate record, with reports built again on its own new lattices."""
    argv, code = COMMANDS[name]
    for _ in range(2 if name.startswith(("validate_", "spec_")) else 1):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
        assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(GEN_KINDS))
def test_gen_files_are_byte_identical(kind, tmp_path):
    """``tests/golden/gen_<kind>_bound4.sha256`` holds ``sha256sum`` lines
    for every file of the corpus, manifest included."""
    assert main(["gen", "--kind", kind, "--bounds", "4", "--out", str(tmp_path)]) == 0
    got = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n" for path in sorted(tmp_path.iterdir())
    )
    assert got == (GOLDEN / f"gen_{kind}_bound4.sha256").read_text(encoding="utf-8")
