"""``build_lattice`` against the numpy form it replaced, kept here as a
test-only reference: meet and join tables found by brute force over the
order, then the numpy triple scan of a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), whose
first failing (a, b, c) in row-major order is the ``NotDistributive``
witness.  And against the ``extreme_of`` scan that its row lookups
replaced, with the same exceptions, messages and witnesses.
``first_index`` also serves the other numpy references in this
directory.  The Birkhoff list ``corpus.distributive_lattices`` against the
trial it replaced: ``build_lattice`` on every unlabeled poset."""

from collections import Counter

from itertools import permutations, product

import numpy as np
import pytest

from test_lattice import pentagon_relation

from bistone.corpus import distributive_lattices, unlabeled_posets
from bistone.errors import BistoneError, InvariantViolation, NotALattice, NotBounded, NotDistributive
from bistone.lattice import FiniteLattice, FinitePoset, build_lattice, extreme_of, transitive_relations


def first_index(flags):
    """Index tuple of the first true entry of a boolean array in row-major
    order (the first row of ``np.argwhere``), or None when all are false."""
    if not flags.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(flags.argmax()), flags.shape))


def relation(poset):
    """The boolean relation matrix of a poset's order, as ``build_lattice``
    takes it."""
    return [[poset.leq(i, j) for j in range(poset.n)] for i in range(poset.n)]


def build_lattice_numpy(poset):
    """Reference verdict of ``build_lattice`` on a poset: ("ok", meet, join)
    or (error name, witness).  Bounds and the first pair i ≤ j without a
    meet, then without a join, are found as ``build_lattice`` orders them."""
    n = poset.n
    leq = np.array(relation(poset), dtype=bool)
    if not (leq.all(axis=1).any() and leq.all(axis=0).any()):
        return "NotBounded", None
    meet = np.zeros((n, n), dtype=np.intp)
    join = np.zeros((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            lower, upper = leq[:, i] & leq[:, j], leq[i] & leq[j]
            greatest = [m for m in np.flatnonzero(lower) if leq[lower, m].all()]
            least = [v for v in np.flatnonzero(upper) if leq[v, upper].all()]
            if not greatest or not least:
                return "NotALattice", (i, j)
            meet[i, j] = meet[j, i] = greatest[0]
            join[i, j] = join[j, i] = least[0]
    lhs = meet[:, join]                                   # a ∧ (b ∨ c)
    rhs = join[meet[:, :, None], meet[:, None, :]]        # (a ∧ b) ∨ (a ∧ c)
    bad = first_index(lhs != rhs)
    if bad is not None:
        return "NotDistributive", bad
    return "ok", meet, join


def build_lattice_verdict(poset):
    try:
        L = build_lattice(poset.labels, relation(poset))
    except (NotBounded, NotALattice, NotDistributive) as exc:
        return type(exc).__name__, exc.witness
    return "ok", np.asarray(L.meet), np.asarray(L.join)


def same_verdict(got, want):
    return got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


def test_distributivity_matches_numpy_triple_scan():
    """Every unlabeled poset with 2..6 elements, as the relation given to
    ``build_lattice``."""
    counts = {}
    for poset in unlabeled_posets(6):
        if poset.n < 2:
            continue
        want = build_lattice_numpy(poset)
        assert same_verdict(build_lattice_verdict(poset), want), poset.labels
        counts[want[0]] = counts.get(want[0], 0) + 1
    assert counts["ok"] == 1 + 1 + 2 + 3 + 5  # A006982 at 2..6 elements
    assert counts["NotDistributive"] > 0 and counts["NotALattice"] > 0 and counts["NotBounded"] > 0


def build_lattice_by_scan(labels, leq):
    """Reference: ``build_lattice`` with each bound, meet and join found by
    an ``extreme_of`` scan of the candidates, O(n³) in all."""
    poset = FinitePoset(labels, leq)
    n = poset.n
    if n == 0:
        raise NotBounded("empty carrier has no bottom element")
    full = (1 << n) - 1
    bot = extreme_of(full, poset.up)
    top = extreme_of(full, poset.down)
    if bot is None or top is None:
        raise NotBounded("no global bottom/top element")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = extreme_of(poset.down[i] & poset.down[j], poset.down)
            if m is None:
                raise NotALattice(f"({poset.labels[i]}, {poset.labels[j]}) has no meet", witness=(i, j))
            v = extreme_of(poset.up[i] & poset.up[j], poset.up)
            if v is None:
                raise NotALattice(f"({poset.labels[i]}, {poset.labels[j]}) has no join", witness=(i, j))
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = v
    meet, join = tuple(map(tuple, meet)), tuple(map(tuple, join))
    for j, lower in enumerate(poset.cover_down):
        if lower.bit_count() == 1 and extreme_of(full & ~poset.up[j], poset.down) is None:
            for a, b, c in product(range(n), repeat=3):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise NotDistributive(
                        f"witness triple ({poset.labels[a]}, {poset.labels[b]}, {poset.labels[c]})",
                        witness=(a, b, c),
                    )
            raise InvariantViolation(f"{poset.labels[j]} is not join-prime, yet every triple distributes")
    return FiniteLattice(poset, bot, top, meet, join)


def outcome(build, labels, leq):
    """The lattice's bounds and tables, or its exception's type, message
    and witness."""
    try:
        L = build(labels, leq)
    except BistoneError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return L.bot, L.top, L.meet, L.join


def test_row_lookup_matches_the_extreme_scan():
    """On the 405 unlabeled posets with 1..6 elements and on every
    reflexive transitive relation with at most 4 points (antisymmetric or
    not, bounded or not), ``build_lattice`` gives the scan's bounds and
    tables, or the same exception, message and witness."""
    inputs = [(poset.labels, relation(poset)) for poset in unlabeled_posets(6)]
    assert len(inputs) == 405
    for n in range(5):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for rows in transitive_relations(n, pairs):
            inputs.append(([f"x{i}" for i in range(n)], [[(row >> j) & 1 == 1 for j in range(n)] for row in rows]))
    assert len(inputs) == 405 + 1 + 1 + 4 + 29 + 355  # A000798 at 0..4 points
    kinds = Counter()
    for labels, leq in inputs:
        want = outcome(build_lattice_by_scan, labels, leq)
        assert outcome(build_lattice, labels, leq) == want, (labels, leq)
        kinds[want[0] if isinstance(want[0], str) else "ok"] += 1
    assert set(kinds) == {"ok", "NotBounded", "NotALattice", "NotDistributive", "NotAPoset"}


def distributive_lattices_by_trial(max_size):
    """Oracle: the posets with 2..max_size elements, in corpus order, that
    ``build_lattice`` accepts."""
    out = []
    for poset in unlabeled_posets(max_size):
        if poset.n < 2:
            continue
        try:
            out.append(build_lattice(poset.labels, relation(poset)))
        except (NotBounded, NotALattice, NotDistributive):
            continue
    return out


def test_birkhoff_list_is_pinned_and_matches_the_trial():
    """``distributive_lattices(k)`` for k = 2..7 holds 1, 2, 4, 7, 12 and 20
    pairwise non-isomorphic lattices: 1, 1, 2, 3, 5, 8 per size (A006982),
    each accepted by ``build_lattice`` with the same tables.  At k ≤ 6 the
    signatures are the trial's, in order (posets stop at 6 elements, so the
    trial stops there), and at k ≤ 5 so are the up rows."""
    counts = []
    for k in range(2, 8):
        lattices = distributive_lattices(k)
        signatures = [L.isomorphism_signature() for L in lattices]
        assert len(set(signatures)) == len(lattices)
        for L in lattices:
            rebuilt = build_lattice(L.labels, relation(L))
            assert (rebuilt.meet, rebuilt.join) == (L.meet, L.join)
        if k <= 6:
            trial = distributive_lattices_by_trial(k)
            assert signatures == [L.isomorphism_signature() for L in trial]
            if k <= 5:
                assert [L.up for L in lattices] == [L.up for L in trial]
        counts.append(len(lattices))
    assert counts == [1, 2, 4, 7, 12, 20]
    assert Counter(L.n for L in lattices) == {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}


@pytest.mark.parametrize("name", ["N5", "M3"])
def test_distributivity_witness_under_every_labelling(name):
    """The witness is the first failing triple in row-major order under each
    of the 120 labellings of the pentagon and of the diamond."""
    if name == "N5":
        _, leq = pentagon_relation()
    else:
        leq = [[i == j or i == 0 or j == 4 for j in range(5)] for i in range(5)]
    for perm in permutations(range(5)):
        relabeled = [[leq[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
        poset = FinitePoset([str(k) for k in range(5)], relabeled)
        want = build_lattice_numpy(poset)
        assert want[0] == "NotDistributive"
        assert same_verdict(build_lattice_verdict(poset), want), perm
