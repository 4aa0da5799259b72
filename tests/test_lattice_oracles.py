"""``build_lattice`` against the numpy form it replaced, kept here as a
test-only reference: meet and join tables found by brute force over the
order, then the numpy triple scan of a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), whose
first failing (a, b, c) in row-major order is the ``NotDistributive``
witness.  ``first_index`` also serves the other numpy references in this
directory."""

from itertools import permutations

import numpy as np
import pytest

from test_lattice import pentagon_relation

from bistone.corpus import unlabeled_posets
from bistone.errors import NotALattice, NotBounded, NotDistributive
from bistone.lattice import FinitePoset, build_lattice


def first_index(flags):
    """Index tuple of the first true entry of a boolean array in row-major
    order (the first row of ``np.argwhere``), or None when all are false."""
    if not flags.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(flags.argmax()), flags.shape))


def build_lattice_numpy(poset):
    """Reference verdict of ``build_lattice`` on a poset: ("ok", meet, join)
    or (error name, witness).  Bounds and the first pair i ≤ j without a
    meet, then without a join, are found as ``build_lattice`` orders them."""
    n = poset.n
    leq = np.array([[poset.leq(i, j) for j in range(n)] for i in range(n)], dtype=bool)
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
        L = build_lattice(poset.labels, poset)
    except (NotBounded, NotALattice, NotDistributive) as exc:
        return type(exc).__name__, exc.witness
    return "ok", np.asarray(L.meet), np.asarray(L.join)


def same_verdict(got, want):
    return got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


def test_distributivity_matches_numpy_triple_scan():
    """Every relation that ``corpus.distributive_lattices(6)`` tries."""
    counts = {}
    for poset in unlabeled_posets(6):
        if poset.n < 2:
            continue
        want = build_lattice_numpy(poset)
        assert same_verdict(build_lattice_verdict(poset), want), poset.labels
        counts[want[0]] = counts.get(want[0], 0) + 1
    assert counts["ok"] == 1 + 1 + 2 + 3 + 5  # A006982 at 2..6 elements
    assert counts["NotDistributive"] > 0 and counts["NotALattice"] > 0 and counts["NotBounded"] > 0


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
