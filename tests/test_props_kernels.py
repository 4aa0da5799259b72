"""The table and bitmask kernels on the ``props`` path against the per-element
scans they replaced, each kept here as a test-only reference: the
``feasible``-filtered hom enumeration, the scalar logic-order loop, the
literal compactness subfamily scan and the directed-closure loop of the
``compact-elements`` row."""

from itertools import combinations

import numpy as np
import pytest

from bistone import bitop as bt
from bistone import duality as du
from bistone import suites
from bistone.corpus import birkhoff_corpus
from bistone.dlattice import DLattice, d_complemented_sides, logic_join, logic_meet
from bistone.lattice import LatticeHom, build_lattice, enumerate_lattice_homs, validate_lattice_hom


def enumerate_lattice_homs_feasible(L, M):
    """Reference: every candidate image of every element is filtered by a
    scan over the placed elements."""
    order = L.poset.linear_extension()
    position = {a: k for k, a in enumerate(order)}
    mapping = [-1] * L.n
    out = []

    join_checks = [[] for _ in range(L.n)]
    for x in range(L.n):
        for y in range(x, L.n):
            j = int(L.join[x, y])
            if j != x and j != y:
                join_checks[j].append((x, y))

    def feasible(a, b):
        for a2 in order[: position[a]]:
            b2 = mapping[a2]
            if L.leq(a2, a) and not M.leq(b2, b):
                return False
            if L.leq(a, a2) and not M.leq(b, b2):
                return False
            m = int(L.meet[a, a2])
            if m != a and mapping[m] >= 0 and int(M.meet[b, b2]) != mapping[m]:
                return False
        for x, y in join_checks[a]:
            if mapping[x] >= 0 and mapping[y] >= 0 and int(M.join[mapping[x], mapping[y]]) != b:
                return False
        return True

    def backtrack(k):
        if k == L.n:
            hom = LatticeHom(L, M, tuple(mapping))
            if validate_lattice_hom(hom).ok:
                out.append(hom)
            return
        a = order[k]
        if a == L.bot:
            candidates = [M.bot]
        elif a == L.top:
            candidates = [M.top]
        else:
            candidates = range(M.n)
        for b in candidates:
            if feasible(a, b):
                mapping[a] = b
                backtrack(k + 1)
                mapping[a] = -1

    backtrack(0)
    return out


def test_hom_enumeration_matches_feasible_scan():
    lattices = [L for L in birkhoff_corpus(4) if L.n <= 8]
    total = 0
    for L in lattices:
        for M in lattices:
            fast = [h.mapping for h in enumerate_lattice_homs(L, M)]
            assert fast == [h.mapping for h in enumerate_lattice_homs_feasible(L, M)]
            total += len(fast)
    assert total == 5900


def check_logic_order_scalar(bundle, carrier_limit=40):
    """Reference: the per-pair loop, reading the formulas through ``suites``
    so that a patched formula reaches both versions."""
    for dl in suites.all_dlattices(bundle):
        for p in range(dl.size):
            for q in range(dl.size):
                if suites.logic_meet(dl, p, q) != suites.logic_meet_coordinatewise(dl, p, q):
                    return False, f"logic meet formula mismatch at ({p},{q})"
                if suites.logic_join(dl, p, q) != suites.logic_join_coordinatewise(dl, p, q):
                    return False, f"logic join formula mismatch at ({p},{q})"
        if dl.size <= carrier_limit:
            lat = suites.logic_order_lattice(dl)
            if lat.top != dl.tt or lat.bot != dl.ff:
                return False, "logic order has wrong bounds"
    return True, "logic order is a bounded lattice; formulas match coordinates"


def _wrong_at(formula, target, p0, q0):
    def patched(dl, p, q):
        right = formula(dl, p, q)
        return np.where((dl is target) & (p == p0) & (q == q0), right + 1, right)

    return patched


@pytest.mark.parametrize(
    "index, meet_at, join_at, expected",
    [
        (2, (9, 6), None, "logic meet formula mismatch at (9,6)"),
        (2, None, (9, 6), "logic join formula mismatch at (9,6)"),
        (2, (9, 6), (9, 6), "logic meet formula mismatch at (9,6)"),
        (2, (9, 6), (9, 5), "logic join formula mismatch at (9,5)"),
        (2, (3, 14), (9, 5), "logic meet formula mismatch at (3,14)"),
        # 256 pairs, evaluated in blocks of rows
        (21, (200, 17), None, "logic meet formula mismatch at (200,17)"),
        (21, (200, 17), (37, 250), "logic join formula mismatch at (37,250)"),
    ],
)
def test_logic_order_table_check_matches_scalar_loop(bundle, monkeypatch, index, meet_at, join_at, expected):
    target = suites.all_dlattices(bundle)[index]
    assert target.size == {2: 16, 21: 256}[index]
    if meet_at:
        wrong = _wrong_at(suites.logic_meet_coordinatewise, target, *meet_at)
        monkeypatch.setattr(suites, "logic_meet_coordinatewise", wrong)
    if join_at:
        wrong = _wrong_at(suites.logic_join_coordinatewise, target, *join_at)
        monkeypatch.setattr(suites, "logic_join_coordinatewise", wrong)
    assert suites.check_logic_order(bundle) == check_logic_order_scalar(bundle) == (False, expected)


def test_pair_ids_past_int16_do_not_wrap(monkeypatch):
    monkeypatch.setenv("BISTONE_MAX_ELEMENTS", "182")
    n = 182
    chain = build_lattice([str(i) for i in range(n)], [[i <= j for j in range(n)] for i in range(n)])
    dl = DLattice(chain, chain, 0, 0)
    p, q = np.array([[dl.size - 1]]), np.array([[dl.size - 2]])
    assert logic_meet(dl, p, q).tolist() == [[(n - 1) * n + n - 1]]
    assert logic_join(dl, p, q).tolist() == [[(n - 1) * n + n - 2]]


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
        spaces.extend(bt.space(labels, tp, tm) for tp in tops for tm in tops)
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
                if not L.leq(a, L.join_fold(members)):
                    continue
                closure = set(members)
                while True:
                    new = {int(L.join[x, y]) for x in closure for y in closure} - closure
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
