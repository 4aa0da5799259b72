"""The two canonical forms against the n! scans they replaced, kept here as
test-only oracles: ``FinitePoset.isomorphism_signature`` (a search over
reverse linear extensions) against the least row-major code over every
relabeling, and ``duality._space_signature`` (read from the relabeling
tables) against imaging every open under every permutation.  The lattice
isomorphisms read off the canonical orderings (``lattice.lattice_isos``)
are checked against enumerating every lattice homomorphism and keeping the
bijections, and the automorphism counts against the n! scan.  The counts
pinned here are A000112, the Q1 class counts on one to three points and
|Aut(2^k)| = k!."""

import random
from itertools import permutations

import pytest

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import (
    KNOWN_POSET_COUNTS,
    birkhoff_corpus,
    boolean_lattice,
    distributive_lattices,
    unlabeled_posets,
    unlabeled_posets_of_size,
)
from bistone.errors import BoundsTooLarge, NotAPoset
from bistone.lattice import (
    FinitePoset,
    birkhoff,
    bits,
    enumerate_lattice_homs,
    is_lattice_iso,
    lattice_isos,
    mask_of,
)


def poset_signature_by_permutations(poset):
    """Oracle: the least row-major code of the relation over all n!
    relabelings."""
    best = None
    idx = range(poset.n)
    for perm in permutations(idx):
        code = 0
        for i in idx:
            for j in idx:
                code = (code << 1) | (1 if poset.leq(perm[i], perm[j]) else 0)
        if best is None or code < best:
            best = code
    return (poset.n, best)


def space_signature_by_permutations(spc):
    """Oracle: the least (sorted image of τ₊, sorted image of τ₋) over all
    n! relabelings, each open imaged point by point."""
    best = None
    for perm in permutations(range(spc.n)):
        tp = tuple(sorted(mask_of(perm[x] for x in bits(u)) for u in spc.tau_plus))
        tm = tuple(sorted(mask_of(perm[x] for x in bits(v)) for v in spc.tau_minus))
        if best is None or (tp, tm) < best:
            best = (tp, tm)
    return best


def lattice_isos_by_homs(L, M):
    """Oracle: every lattice homomorphism L → M that is a bijection with a
    homomorphism inverse, as mappings."""
    return [h.mapping for h in enumerate_lattice_homs(L, M) if is_lattice_iso(h)]


def automorphisms_by_permutations(poset):
    """Oracle: the permutations σ of the elements with σ(i) ≤ σ(j) iff
    i ≤ j, as tuples."""
    idx = range(poset.n)
    return [
        perm
        for perm in permutations(idx)
        if all(poset.leq(perm[i], perm[j]) == poset.leq(i, j) for i in idx for j in idx)
    ]


def labels(n):
    return [f"p{i}" for i in range(n)]


def posets_within(n, pairs):
    """Every order on 0..n-1 whose strict part lies within ``pairs``."""
    for code in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
        try:
            yield FinitePoset.from_rows(labels(n), rows)
        except NotAPoset:
            continue


def naturally_labelled_posets(n):
    return posets_within(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def labelled_posets(n):
    return posets_within(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def relabeled(poset, perm):
    """The same order with element i renamed perm[i]."""
    rows = [0] * poset.n
    for i, row in enumerate(poset.up):
        rows[perm[i]] = mask_of(perm[j] for j in bits(row))
    return FinitePoset.from_rows(poset.labels, rows)


def topology_pairs(n):
    tops = du.enumerate_topologies(n)
    return [(tp, tm) for tp in tops for tm in tops]


@pytest.mark.parametrize("n", range(6))
def test_poset_signature_matches_oracle_on_naturally_labelled_posets(n):
    posets = list(naturally_labelled_posets(n))
    assert len(posets) == (1, 1, 2, 7, 40, 357)[n]  # A006455
    assert [p.isomorphism_signature() for p in posets] == [poset_signature_by_permutations(p) for p in posets]


@pytest.mark.parametrize("n", range(1, 5))
def test_poset_signature_matches_oracle_on_labelled_posets(n):
    posets = list(labelled_posets(n))
    assert len(posets) == {1: 1, 2: 3, 3: 19, 4: 219}[n]  # A001035
    assert [p.isomorphism_signature() for p in posets] == [poset_signature_by_permutations(p) for p in posets]


def test_poset_signature_is_invariant_under_seeded_relabelings_of_five_posets():
    rng = random.Random(2002)
    posets = unlabeled_posets_of_size(5)
    assert len(posets) == 63
    for poset in posets:
        sig = poset.isomorphism_signature()
        for _ in range(3):
            perm = list(range(5))
            rng.shuffle(perm)
            moved = relabeled(poset, perm)
            assert moved.isomorphism_signature() == poset_signature_by_permutations(moved) == sig


def test_poset_corpus_pins_a000112_at_six():
    assert KNOWN_POSET_COUNTS == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
    posets = unlabeled_posets_of_size(6)
    assert len(posets) == 318
    assert len({p.isomorphism_signature() for p in posets}) == 318


def test_lattice_isos_match_the_hom_oracle_on_every_same_size_pair():
    lattices = birkhoff_corpus(4) + distributive_lattices(6) + [boolean_lattice(k) for k in range(1, 5)]
    pairs = [(L, M) for L in lattices for M in lattices if L.n == M.n]
    assert len(pairs) == 198
    for L, M in pairs:
        fast = [h.mapping for h in lattice_isos(L, M)]
        assert len(set(fast)) == len(fast)
        assert sorted(fast) == sorted(lattice_isos_by_homs(L, M)), (L.labels, M.labels)


def test_automorphism_counts_match_the_permutation_scan():
    """|Aut(P)| three ways on every poset of at most five elements: the
    minimisers of the canonical search, the n! scan, and the automorphisms
    of the down-set lattice (Birkhoff duality)."""
    posets = unlabeled_posets(5)
    assert len(posets) == 87
    total = 0
    for poset in posets:
        count = len(automorphisms_by_permutations(poset))
        assert len(poset.canonical_orderings()[1]) == count
        assert len(list(lattice_isos(birkhoff(poset), birkhoff(poset)))) == count
        total += count
    assert total == 400


def test_canonical_orderings_attain_the_signature():
    for poset in unlabeled_posets(5):
        (n, code), minimisers = poset.canonical_orderings()
        for order in minimisers:
            assert sorted(order) == list(range(n))
            bits_of = [poset.leq(order[i], order[j]) for i in range(n) for j in range(n)]
            assert sum(bit << k for k, bit in enumerate(reversed(bits_of))) == code


@pytest.mark.parametrize("k, count", [(1, 1), (2, 2), (3, 6), (4, 24)])
def test_boolean_lattice_automorphisms_are_permutations_of_atoms(k, count):
    L = boolean_lattice(k)
    assert len(list(lattice_isos(L, L))) == count


def test_relabel_tables_image_every_subset_in_permutation_order():
    for n in range(5):
        tables = du._relabel_tables(n)
        perms = list(permutations(range(n)))
        assert len(tables) == len(perms)
        for perm, image in zip(perms, tables):
            assert image == tuple(mask_of(perm[x] for x in bits(m)) for m in range(1 << n))


def test_space_signature_matches_oracle_on_all_pairs_up_to_three_points():
    count = 0
    for n in range(1, 4):
        for tp, tm in topology_pairs(n):
            spc = bt.BiTopSpace(labels(n), tp, tm)
            assert du._space_signature(spc) == space_signature_by_permutations(spc), (tp, tm)
            count += 1
    assert count == 858


def test_space_signature_matches_oracle_on_seeded_four_point_pairs():
    rng = random.Random(1998)
    tops = du.enumerate_topologies(4)
    assert len(tops) == 355
    for _ in range(2000):
        tp, tm = rng.choice(tops), rng.choice(tops)
        spc = bt.BiTopSpace(labels(4), tp, tm)
        assert du._space_signature(spc) == space_signature_by_permutations(spc), (tp, tm)


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 10), (3, 166)])
def test_space_signature_pins_q1_class_counts(n, classes):
    sigs = {du._space_signature(bt.BiTopSpace(labels(n), tp, tm)) for tp, tm in topology_pairs(n)}
    assert len(sigs) == classes


def test_space_signature_above_six_points_is_refused():
    full = (1 << 7) - 1
    spc = bt.BiTopSpace(labels(7), [0, full], [0, full])
    with pytest.raises(BoundsTooLarge):
        du._space_signature(spc)
