"""The bitmask ``validate_dlattice`` against the numpy matrix validator it
replaced (kept here as a test-only oracle), byte-pinned ``bistone validate``
reports for one failing file per axiom, and the immutability of d-lattices."""

import json

import numpy as np
import pytest

from bistone import duality as du
from bistone.cli import main
from bistone.corpus import dbool_corpus
from bistone.dlattice import DLattice, validate_dlattice
from bistone.lattice import bits, build_lattice
from bistone.report import StructReport
from bistone.serialize import dumps


def _matrix(dl, mask):
    out = np.zeros((dl.plus.n, dl.minus.n), dtype=bool)
    for p in bits(mask):
        out[dl.unpid(p)] = True
    return out


def _leq_matrix(L):
    return np.array([[(L.up[i] >> j) & 1 for j in range(L.n)] for i in range(L.n)], dtype=bool)


def validate_dlattice_numpy(dl):
    """Oracle: the numpy matrix validator, with the matrices built here."""
    if dl.plus.n < 2 or dl.minus.n < 2:
        return StructReport.failed(
            "degenerate-pair",
            message="{tt,ff} = {1,0}: a coordinate lattice is trivial",
        )
    if not dl.in_con(dl.tt):
        return StructReport.failed("con-tt-ff", witness="tt", message="tt not in con")
    if not dl.in_con(dl.ff):
        return StructReport.failed("con-tt-ff", witness="ff", message="ff not in con")
    if not dl.in_tot(dl.tt):
        return StructReport.failed("tot-tt-ff", witness="tt", message="tt not in tot")
    if not dl.in_tot(dl.ff):
        return StructReport.failed("tot-tt-ff", witness="ff", message="ff not in tot")

    C, T = _matrix(dl, dl.con_mask), _matrix(dl, dl.tot_mask)
    LP, LM = _leq_matrix(dl.plus), _leq_matrix(dl.minus)
    # down-closure of con (finite Scott-closedness, see module docstring)
    closure = (LP @ (C.astype(np.int32) @ LM.T.astype(np.int32))) > 0
    missing = np.argwhere(closure & ~C)
    if missing.size:
        a, b = (int(x) for x in missing[0])
        return StructReport.failed(
            "con-scott-closed",
            witness=(dl.plus.labels[a], dl.minus.labels[b]),
            message=f"con misses the smaller pair ({dl.plus.labels[a]},{dl.minus.labels[b]})",
        )
    up_closure = (LP.T @ (T.astype(np.int32) @ LM.astype(np.int32))) > 0
    missing = np.argwhere(up_closure & ~T)
    if missing.size:
        a, b = (int(x) for x in missing[0])
        return StructReport.failed(
            "tot-upper-set",
            witness=(dl.plus.labels[a], dl.minus.labels[b]),
            message=f"tot misses the larger pair ({dl.plus.labels[a]},{dl.minus.labels[b]})",
        )

    for name, mat in (("con", C), ("tot", T)):
        rows, cols = np.nonzero(mat)
        if rows.size:
            a1, a2 = rows[:, None], rows[None, :]
            b1, b2 = cols[:, None], cols[None, :]
            (pm, pj), (mm, mj) = ((np.asarray(L.meet), np.asarray(L.join)) for L in (dl.plus, dl.minus))
            sqcap = mat[pm[a1, a2], mj[b1, b2]]
            sqcup = mat[pj[a1, a2], mm[b1, b2]]
            for op, ok in (("logic-meet", sqcap), ("logic-join", sqcup)):
                bad = np.argwhere(~ok)
                if bad.size:
                    i, j = (int(x) for x in bad[0])
                    w = (
                        (dl.plus.labels[int(rows[i])], dl.minus.labels[int(cols[i])]),
                        (dl.plus.labels[int(rows[j])], dl.minus.labels[int(cols[j])]),
                    )
                    return StructReport.failed(
                        f"{name}-logic-sublattice",
                        witness=w,
                        message=f"{name} not closed under {op} at {w}",
                    )

    crows, ccols = np.nonzero(C)
    trows, tcols = np.nonzero(T)
    if crows.size and trows.size:
        same_plus = crows[:, None] == trows[None, :]
        same_minus = ccols[:, None] == tcols[None, :]
        below = LP[crows[:, None], trows[None, :]] & LM[ccols[:, None], tcols[None, :]]
        bad = np.argwhere((same_plus | same_minus) & ~below)
        if bad.size:
            i, j = (int(x) for x in bad[0])
            alpha = (dl.plus.labels[int(crows[i])], dl.minus.labels[int(ccols[i])])
            beta = (dl.plus.labels[int(trows[j])], dl.minus.labels[int(tcols[j])])
            return StructReport.failed(
                "con-tot",
                witness={"alpha": alpha, "beta": beta},
                message=f"consistent {alpha} shares a coordinate with total {beta} but is not below it",
            )
    return StructReport.passed("valid d-lattice")


def _q2_candidates(bound):
    out = []
    lattices = du._distributive_lattices_upto(bound)
    for plus in lattices:
        for minus in lattices:
            shell = DLattice(plus, minus, 0, 0)
            seed = (1 << shell.tt) | (1 << shell.ff)
            cons = [c for c in du._down_sets_of_product(shell, seed)[0] if du._logic_closed(shell, c)]
            tots = [t for t in du._up_sets_containing(shell, seed) if du._logic_closed(shell, t)]
            out.extend(DLattice(plus, minus, c, t) for c in cons for t in tots)
    return out


def pair_rows(dl, mask):
    """Per plus element a, the minus-side bitmask of the pairs (a, b) in mask."""
    nm = dl.minus.n
    row = (1 << nm) - 1
    return [(mask >> (a * nm)) & row for a in range(dl.plus.n)]


def _single_bit_mutants(dl):
    for p in range(dl.size):
        yield DLattice(dl.plus, dl.minus, dl.con_mask ^ (1 << p), dl.tot_mask)
    for p in range(dl.size):
        yield DLattice(dl.plus, dl.minus, dl.con_mask, dl.tot_mask ^ (1 << p))


def test_validate_matches_numpy_oracle(chain2):
    candidates = _q2_candidates(4)
    valid = [dl for dl in candidates if validate_dlattice_numpy(dl).ok]
    mutants = [m for dl in valid for m in _single_bit_mutants(dl)]
    one = build_lattice(["0"], [[True]])
    degenerate = [DLattice(one, chain2, 0b01, 0b10)]
    inputs = candidates + mutants + degenerate + list(dbool_corpus(4))
    assert (len(candidates), len(valid), len(mutants)) == (1652, 135, 3896)
    fired = set()
    for dl in inputs:
        want = validate_dlattice_numpy(dl)
        assert validate_dlattice(dl) == want
        fired.add(want.axiom)
    assert fired == {
        None,
        "degenerate-pair",
        "con-tt-ff",
        "tot-tt-ff",
        "con-scott-closed",
        "tot-upper-set",
        "con-logic-sublattice",
        "tot-logic-sublattice",
        "con-tot",
    }


def _lattice_json(labels):
    n = len(labels)
    if n == 4:  # the four-element Boolean lattice a < b, c < d
        leq = [[True] * 4, [False, True, False, True], [False, False, True, True], [False, False, False, True]]
    else:  # a chain
        leq = [[i <= j for j in range(n)] for i in range(n)]
    return {"elements": list(labels), "leq": leq}


CHAIN2, CHAIN3, B2 = _lattice_json("ab"), _lattice_json("abc"), _lattice_json("abcd")

# (plus, minus, con, tot, stdout of ``bistone validate``) per axiom, the
# stdout recorded from the numpy matrix validator
AXIOM_FILES = {
    "degenerate-pair": (
        _lattice_json("0"), CHAIN2, [[0, 0]], [[0, 1]],
        '{"axiom":"degenerate-pair","kind":"report","message":"{tt,ff} = {1,0}: a coordinate lattice is trivial","ok":false,"version":1,"witness":null}',
    ),
    "con-tt-ff": (
        CHAIN2, CHAIN2, [[0, 0], [1, 0]], [[0, 1], [1, 0], [1, 1]],
        '{"axiom":"con-tt-ff","kind":"report","message":"ff not in con","ok":false,"version":1,"witness":"ff"}',
    ),
    "tot-tt-ff": (
        CHAIN2, CHAIN2, [[0, 0], [0, 1], [1, 0]], [[1, 0], [1, 1]],
        '{"axiom":"tot-tt-ff","kind":"report","message":"ff not in tot","ok":false,"version":1,"witness":"ff"}',
    ),
    "con-scott-closed": (
        CHAIN2, CHAIN2, [[0, 1], [1, 0]], [[0, 1], [1, 0], [1, 1]],
        '{"axiom":"con-scott-closed","kind":"report","message":"con misses the smaller pair (a,a)","ok":false,"version":1,"witness":["a","a"]}',
    ),
    "tot-upper-set": (
        CHAIN2, CHAIN2, [[0, 0], [0, 1], [1, 0]], [[0, 1], [1, 0]],
        '{"axiom":"tot-upper-set","kind":"report","message":"tot misses the larger pair (b,b)","ok":false,"version":1,"witness":["b","b"]}',
    ),
    "con-logic-sublattice": (
        CHAIN3, B2,
        [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0]],
        [[0, 3], [1, 3], [2, 0], [2, 1], [2, 2], [2, 3]],
        '{"axiom":"con-logic-sublattice","kind":"report","message":"con not closed under logic-meet at ((\'b\', \'b\'), (\'b\', \'c\'))","ok":false,"version":1,"witness":[["b","b"],["b","c"]]}',
    ),
    "tot-logic-sublattice": (
        CHAIN3, B2,
        [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [2, 0]],
        [[0, 3], [1, 1], [1, 2], [1, 3], [2, 0], [2, 1], [2, 2], [2, 3]],
        '{"axiom":"tot-logic-sublattice","kind":"report","message":"tot not closed under logic-join at ((\'b\', \'b\'), (\'b\', \'c\'))","ok":false,"version":1,"witness":[["b","b"],["b","c"]]}',
    ),
    "con-tot": (
        CHAIN2, CHAIN2, [[0, 0], [0, 1], [1, 0], [1, 1]], [[0, 1], [1, 0], [1, 1]],
        '{"axiom":"con-tot","kind":"report","message":"consistent (\'b\', \'b\') shares a coordinate with total (\'a\', \'b\') but is not below it","ok":false,"version":1,"witness":{"alpha":["b","b"],"beta":["a","b"]}}',
    ),
}


@pytest.mark.parametrize("axiom", sorted(AXIOM_FILES))
def test_cli_validate_report_is_pinned(axiom, tmp_path, capsys):
    plus, minus, con, tot, stdout = AXIOM_FILES[axiom]
    obj = {"kind": "dlattice", "version": 1, "plus": plus, "minus": minus, "con": con, "tot": tot}
    path = tmp_path / f"{axiom}.json"
    path.write_text(dumps(obj))
    assert main(["validate", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == stdout + "\n"
    assert json.loads(out)["axiom"] == axiom


def test_dlattice_is_immutable_and_mask_only(omega3, lam3):
    for dl in (omega3, lam3):
        for name in ("con_mat", "tot_mat", "leq_plus", "leq_minus", "_matrix", "_cache"):
            assert not hasattr(dl, name)
        before = (dl.plus, dl.minus, dl.con_mask, dl.tot_mask)
        for name in ("plus", "minus", "con_mask", "tot_mask", "dagger", "fresh"):
            with pytest.raises(AttributeError):
                setattr(dl, name, 0)
        assert (dl.plus, dl.minus, dl.con_mask, dl.tot_mask) == before
    assert lam3.dagger == (0, 1, 2)
