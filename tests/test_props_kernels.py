"""The table and bitmask kernels on the ``props`` path against the per-element
scans they replaced, each kept here as a test-only reference: the numpy
lattice-law tables, the scalar logic-order loop, the literal compactness
subfamily scan and the directed-closure loop of the ``compact-elements``
row.  The hom enumeration's oracle is the table backtracking in
``test_hom_oracles.py``."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from test_dlattice import logic_join, logic_join_coordinatewise, logic_meet, logic_meet_coordinatewise
from test_lattice import join_fold

from bistone import bitop as bt
from bistone import duality as du
from bistone import suites
from bistone.corpus import birkhoff_corpus
from bistone.dlattice import DLattice, d_complemented_sides, logic_formula_row
from bistone.lattice import build_lattice


def check_lattice_laws_numpy(bundle):
    """Reference: the whole-table numpy form of the ``lattice-laws`` row."""
    for L in bundle.lattices:
        idx = np.arange(L.n)
        meet, join = np.asarray(L.meet), np.asarray(L.join)
        for name, table, other in (("meet", meet, join), ("join", join, meet)):
            if (table[idx, idx] != idx).any():
                return False, f"{name} not idempotent"
            if (table != table.T).any():
                return False, f"{name} not commutative"
            if (table[table, :] != table[:, table].transpose(1, 0, 2)).any():
                return False, f"{name} not associative"
            if (table[idx[:, None], other[idx[:, None], idx[None, :]]] != idx[:, None]).any():
                return False, f"absorption fails through {name}"
    return True, f"laws hold on {len(bundle.lattices)} lattices"


def test_lattice_laws_row_check_matches_numpy_tables():
    """Every lattice of at most 6 elements from ``birkhoff_corpus(4)`` with
    one table entry, or one symmetric pair of entries, changed to each
    other element: the row check and the numpy form give the same verdict
    and message."""
    verdicts = Counter()
    for L in [L for L in birkhoff_corpus(4) if 2 <= L.n <= 6]:
        for name in ("meet", "join"):
            original = getattr(L, name)
            for a, b, value in ((a, b, v) for a in range(L.n) for b in range(a, L.n) for v in range(L.n)):
                for cells in {((a, b),), ((a, b), (b, a))}:
                    rows = [list(row) for row in original]
                    for x, y in cells:
                        rows[x][y] = value
                    setattr(L, name, tuple(map(tuple, rows)))
                    bundle = suites.CorpusBundle(lattices=[L])
                    got = suites.check_lattice_laws(bundle)
                    assert got == check_lattice_laws_numpy(bundle), (name, cells, value)
                    verdicts[got[1]] += 1
            setattr(L, name, original)
    laws = ("{} not idempotent", "{} not commutative", "{} not associative", "absorption fails through {}")
    assert set(verdicts) == {"laws hold on 1 lattices"} | {law.format(op) for law in laws for op in ("meet", "join")}


def check_logic_order_scalar(bundle, carrier_limit=40):
    """Reference: the per-pair loop over the pair-level formulas, which read
    the same coordinate tables as the row kernel of ``suites``."""
    for dl in suites.all_dlattices(bundle):
        for p in range(dl.size):
            for q in range(dl.size):
                if logic_meet(dl, p, q) != logic_meet_coordinatewise(dl, p, q):
                    return False, f"logic meet formula mismatch at ({p},{q})"
                if logic_join(dl, p, q) != logic_join_coordinatewise(dl, p, q):
                    return False, f"logic join formula mismatch at ({p},{q})"
        if dl.size <= carrier_limit:
            lat = suites.logic_order_lattice(dl)
            if lat.top != dl.tt or lat.bot != dl.ff:
                return False, "logic order has wrong bounds"
    return True, "logic order is a bounded lattice; formulas match coordinates"


def _corrupt(monkeypatch, target, side, table, a, b, value):
    """Replace entry [a][b] of one coordinate table of target, which both
    versions read, for the length of one test."""
    lattice = getattr(target, side)
    rows = [list(row) for row in getattr(lattice, table)]
    assert rows[a][b] != value
    rows[a][b] = value
    monkeypatch.setattr(lattice, table, tuple(map(tuple, rows)))


# meet_at / join_at: a corrupted entry (side, table, a, b, value) whose first
# mismatch is one of the meet / the join formula.  A plus entry breaks the
# pairs (p, q) with given plus coordinates, a minus entry those with given
# minus coordinates.  Target 2 is omega of the four-element Boolean lattice,
# one lattice object on both sides, so each of its entries breaks both
# formulas; target 21 (256 pairs) has two lattices.
@pytest.mark.parametrize(
    "index, meet_at, join_at, expected",
    [
        (2, ("plus", "meet", 1, 1, 2), None, "logic meet formula mismatch at (1,1)"),
        (2, None, ("plus", "meet", 2, 0, 1), "logic join formula mismatch at (0,2)"),
        # both first at (0,1): meet is named
        (2, ("plus", "meet", 0, 1, 2), ("plus", "join", 0, 2, 0), "logic meet formula mismatch at (0,1)"),
        # meet first at (0,2), join at (0,1) in the same row
        (2, ("plus", "meet", 0, 2, 1), ("plus", "meet", 1, 0, 1), "logic join formula mismatch at (0,1)"),
        # meet first at (1,1), join first in a later row, at (3,3)
        (2, ("plus", "meet", 1, 1, 2), ("plus", "join", 0, 3, 0), "logic meet formula mismatch at (1,1)"),
        # the meet formula only; then the join formula earlier
        (21, ("plus", "join", 0, 15, 0), None, "logic meet formula mismatch at (240,240)"),
        (21, ("plus", "join", 0, 15, 0), ("plus", "meet", 1, 1, 2), "logic join formula mismatch at (16,16)"),
    ],
)
def test_logic_order_table_check_matches_scalar_loop(bundle, monkeypatch, index, meet_at, join_at, expected):
    target = suites.all_dlattices(bundle)[index]
    assert target.size == {2: 16, 21: 256}[index]
    for corrupted in (meet_at, join_at):
        if corrupted:
            _corrupt(monkeypatch, target, *corrupted)
    assert suites.check_logic_order(bundle) == check_logic_order_scalar(bundle) == (False, expected)


def test_pair_ids_past_int16_do_not_wrap(monkeypatch):
    monkeypatch.setenv("BISTONE_MAX_ELEMENTS", "182")
    n = 182
    chain = build_lattice([str(i) for i in range(n)], [[i <= j for j in range(n)] for i in range(n)])
    dl = DLattice(chain, chain, 0, 0)
    p, q = dl.size - 1, dl.size - 2
    assert logic_meet(dl, p, q) == (n - 1) * n + n - 1
    assert logic_join(dl, p, q) == (n - 1) * n + n - 2
    for bound, expected in ((dl.ff, (n - 1) * n + n - 1), (dl.tt, (n - 1) * n + n - 2)):
        ea, eb = dl.unpid(bound)
        plus, minus = logic_formula_row(chain, n - 1, ea), logic_formula_row(chain, n - 1, eb)
        assert dl.pid(plus[n - 1], minus[n - 2]) == expected


def is_compact_by_subfamilies(space, subfamily_limit=12):
    """Reference: the literal scan over subfamilies of the union of both
    topologies, with the maximal family standing in for larger ones."""
    opens = tuple(set(space.tau_plus) | set(space.tau_minus))
    if len(opens) <= subfamily_limit:
        for r in range(len(opens) + 1):
            for combo in combinations(opens, r):
                union = 0
                for u in combo:
                    union |= u
                if union == space.full and not _has_finite_subcover(combo, space.full):
                    return False
        return True
    union = 0
    for u in opens:
        union |= u
    if union != space.full:
        return True
    return _has_finite_subcover(opens, space.full)


def _has_finite_subcover(cover, full):
    acc = 0
    for u in sorted(cover, key=lambda m: -m.bit_count()):
        acc |= u
        if acc == full:
            return True
    return acc == full


def test_is_compact_matches_subfamily_scan(bundle):
    spaces = list(bundle.spaces)
    for n in (1, 2, 3):
        tops = du.enumerate_topologies(n)
        labels = [f"x{i}" for i in range(n)]
        spaces.extend(bt.BiTopSpace(labels, tp, tm) for tp in tops for tm in tops)
    assert len(spaces) == len(bundle.spaces) + 858
    for s in spaces:
        assert bt.is_compact(s) == is_compact_by_subfamilies(s) is True


def d_complemented_compact_by_closure(dl):
    """Reference: each d-complemented element lies below a member of the
    binary-join closure of every finite set whose join is above it."""
    bplus, bminus = d_complemented_sides(dl)
    for side_elems, L in ((bplus, dl.plus), (bminus, dl.minus)):
        for a in side_elems:
            for mask in range(1, 1 << L.n):
                members = [i for i in range(L.n) if (mask >> i) & 1]
                if not L.leq(a, join_fold(L, members)):
                    continue
                closure = set(members)
                while True:
                    new = {L.join[x][y] for x in closure for y in closure} - closure
                    if not new:
                        break
                    closure |= new
                if not any(L.leq(a, d) for d in closure):
                    return False
    return True


def test_compact_elements_row_matches_closure_loop(bundle):
    checked = [
        dl for dl in suites.all_dlattices(bundle) if dl.plus.n <= 8 and dl.minus.n <= 8
    ]
    assert len(checked) > 20
    assert all(d_complemented_compact_by_closure(dl) for dl in checked)
    assert suites.check_compact_elements(bundle) == (
        True,
        "d-complemented elements are compact (directed-closure form)",
    )
