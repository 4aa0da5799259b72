"""The row-built pair masks and the ``itertools.product`` map scans against
the loops they replaced, kept here as test-only references: the per-row
shifts of ``dlattice._dagger_masks``, the per-pair double loop of
``omega_of_lattice`` and of ``dB``'s con/tot, and the base-4 counters of
``suites._all_bmaps`` and ``bitop.continuous_maps_to_bool_space``.  The
corpora are ``dbool_corpus(5)`` (87 algebras), ``birkhoff_corpus(5)``, the
default bundle and the Stone spaces of the posets with at most 4 elements."""

from collections import Counter

import pytest

from bistone import bitop as bt
from bistone.corpus import birkhoff_corpus, dbool_corpus, unlabeled_posets
from bistone.dlattice import _dagger_masks, dB, d_complemented_sides, omega_of_lattice
from bistone.suites import _all_bmaps, all_dlattices


@pytest.fixture(scope="module")
def algebras():
    return dbool_corpus(5)


def dagger_masks_by_shifts(minus, dagger):
    """Reference: con and tot with row a shifted in one at a time."""
    nm = minus.n
    con = tot = 0
    for a, d in enumerate(dagger):
        con |= minus.down[d] << (a * nm)
        tot |= minus.up[d] << (a * nm)
    return con, tot


def omega_masks_by_pairs(H):
    """Reference: one bit per pair (a, b) with a ∧ b = 0 (con) or a ∨ b = 1 (tot)."""
    con = tot = 0
    for a in range(H.n):
        for b in range(H.n):
            if H.meet[a][b] == H.bot:
                con |= 1 << (a * H.n + b)
            if H.join[a][b] == H.top:
                tot |= 1 << (a * H.n + b)
    return con, tot


def dB_masks_by_pairs(dl):
    """Reference: dB's con and tot, one pair of d-complemented elements at a time."""
    bplus, bminus = d_complemented_sides(dl)
    con = tot = 0
    nm = len(bminus)
    for i, a in enumerate(bplus):
        for j, b in enumerate(bminus):
            p = i * nm + j
            if dl.in_con(dl.pid(a, b)):
                con |= 1 << p
            if dl.in_tot(dl.pid(a, b)):
                tot |= 1 << p
    return con, tot


def base4_values(n):
    """Reference: every map into four values by a base-4 counter, digit k
    the value at k."""
    out = []
    for code in range(4 ** n):
        values = []
        c = code
        for _ in range(n):
            values.append(c % 4)
            c //= 4
        out.append(tuple(values))
    return out


def test_dagger_masks_match_row_shifts(algebras):
    assert len(algebras) == 87
    for A in algebras:
        assert _dagger_masks(A.minus, A.dagger) == dagger_masks_by_shifts(A.minus, A.dagger)
        assert _dagger_masks(A.minus, A.dagger) == (A.con_mask, A.tot_mask)


def test_omega_masks_match_pair_loop():
    lattices = [H for H in birkhoff_corpus(5) if H.n >= 2]
    assert len(lattices) == 87
    for H in lattices:
        dl = omega_of_lattice(H)
        assert (dl.con_mask, dl.tot_mask) == omega_masks_by_pairs(H)


def test_dB_masks_match_pair_loop(bundle, algebras):
    dlattices = bundle.dlattices + algebras
    for dl in dlattices:
        algebra = dB(dl).algebra
        assert (algebra.con_mask, algebra.tot_mask) == dB_masks_by_pairs(dl)


def test_all_bmaps_match_base4_counter(bundle):
    small = [dl for dl in all_dlattices(bundle) if dl.size <= 6]
    assert small
    for dl in small:
        maps = _all_bmaps(dl)
        assert all(m.dlattice is dl for m in maps)
        assert Counter(m.values for m in maps) == Counter(base4_values(dl.size))


def test_continuous_maps_match_base4_counter(bundle):
    spaces = bundle.spaces + [bt.stone_space_from_poset(p) for p in unlabeled_posets(4)]
    target = bt.bool_bitop_space()
    for space in spaces:
        maps = bt.continuous_maps_to_bool_space(space)
        want = {values for values in base4_values(space.n) if bt.is_continuous(values, space, target)}
        assert len(maps) == len(set(maps)) and set(maps) == want
