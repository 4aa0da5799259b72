"""Posets, lattices, prime ideals, complements, isomorphism search."""

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistone.corpus import birkhoff_corpus, boolean_lattice, distributive_lattices, three_chain, unlabeled_posets
from bistone.errors import BoundsTooLarge, NotAPoset, NotBounded, NotDistributive
from bistone.lattice import (
    FinitePoset,
    LatticeHom,
    birkhoff,
    bits,
    build_lattice,
    closed_sets,
    down_sets,
    enumerate_lattice_homs,
    ideal_generator,
    is_closed,
    is_lattice_iso,
    join_irreducibles,
    lattice_isos,
    prime_generators,
    prime_ideals_bruteforce,
    transitive_relations,
    validate_lattice_hom,
)


def pentagon_relation():
    """The non-distributive pentagon N5 as a labelled relation."""
    labels = ["0", "a", "c", "b", "1"]
    order = {
        ("0", "0"), ("a", "a"), ("b", "b"), ("c", "c"), ("1", "1"),
        ("0", "a"), ("0", "b"), ("0", "c"), ("0", "1"),
        ("a", "c"), ("a", "1"), ("c", "1"), ("b", "1"),
    }
    leq = [[(x, y) in order for y in labels] for x in labels]
    return labels, leq


def join_fold(lattice, indices):
    """The join of the elements at ``indices``; bot for none."""
    acc = lattice.bot
    for i in indices:
        acc = lattice.join[acc][i]
    return acc


def test_poset_rejects_cycle():
    with pytest.raises(NotAPoset):
        FinitePoset(["a", "b"], [[True, True], [True, True]])


def test_poset_rejects_intransitive():
    leq = [[True, True, False], [False, True, True], [False, False, True]]
    with pytest.raises(NotAPoset):
        FinitePoset(["a", "b", "c"], leq)


def test_trivial_lattice():
    L = build_lattice(["x"], [[True]])
    assert L.bot == L.top == 0


def test_three_chain_tables():
    L = three_chain()
    # chains: meet is min, join is max
    for i in range(3):
        for j in range(3):
            assert L.meet[i][j] == min(i, j)
            assert L.join[i][j] == max(i, j)


def test_pentagon_not_distributive():
    labels, leq = pentagon_relation()
    # independent oracle: hand-built meet/join of N5, exhaustive triple scan
    idx = {x: k for k, x in enumerate(labels)}
    order = {(i, j) for i in range(5) for j in range(5) if leq[i][j]}

    def glb(i, j):
        lbs = [k for k in range(5) if (k, i) in order and (k, j) in order]
        tops = [k for k in lbs if all((l, k) in order for l in lbs)]
        return tops[0]

    def lub(i, j):
        ubs = [k for k in range(5) if (i, k) in order and (j, k) in order]
        bots = [k for k in ubs if all((k, l) in order for l in ubs)]
        return bots[0]

    oracle_witnesses = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if glb(a, lub(b, c)) != lub(glb(a, b), glb(a, c))
    ]
    assert oracle_witnesses, "N5 should violate distributivity"
    with pytest.raises(NotDistributive) as exc:
        build_lattice(labels, leq)
    a, b, c = exc.value.witness
    assert glb(a, lub(b, c)) != lub(glb(a, b), glb(a, c))
    del idx


def test_unbounded_pair_rejected():
    # two incomparable points: no top
    with pytest.raises(NotBounded):
        build_lattice(["a", "b"], [[True, False], [False, True]])


def test_birkhoff_two_chain(poset2):
    # oracle: down-sets of p<q by hand
    assert sorted(down_sets(poset2)) == [0b00, 0b01, 0b11]
    L = birkhoff(poset2)
    assert L.n == 3
    assert L.join[1][1] == 1 and L.bot == 0 and L.top == 2
    # a 3-element lattice is a chain
    assert all(L.leq(i, j) or L.leq(j, i) for i in range(3) for j in range(3))


def test_birkhoff_two_antichain(antichain2):
    assert sorted(down_sets(antichain2)) == [0b00, 0b01, 0b10, 0b11]
    L = birkhoff(antichain2)
    assert L.n == 4
    assert complement(L, 1) == 2 and complement(L, 2) == 1


def test_birkhoff_empty_poset():
    empty = FinitePoset([], [])
    with pytest.raises(NotBounded):
        # one down-set only; still a 1-element lattice after the guard below
        build_lattice([], [])
    L = birkhoff(empty)
    assert L.n == 1


def closed_sets_by_scan(rows, start=0):
    """Oracle: every one of the 2^n masks, ascending, that holds start and
    passes ``is_closed``."""
    return [m for m in range(1 << len(rows)) if m & start == start and is_closed(m, rows)]


def test_closed_sets_match_the_subset_scan_on_posets():
    """The down and the up rows of every poset with at most 6 elements, from
    no start and from each element."""
    posets = unlabeled_posets(6)
    assert len(posets) == 1 + 2 + 5 + 16 + 63 + 318
    for p in posets:
        for rows in (p.down, p.up):
            for start in [0] + [1 << x for x in range(p.n)]:
                assert closed_sets(rows, start) == closed_sets_by_scan(rows, start), (p.up, rows, start)


def test_closed_sets_match_the_subset_scan_on_preorders():
    """Every preorder on at most 4 points (A000798: 1, 1, 4, 29, 355), from
    every start; a preorder's closed sets are the opens of a topology."""
    counts = []
    for n in range(5):
        preorders = list(transitive_relations(n, [(i, j) for i in range(n) for j in range(n) if i != j]))
        counts.append(len(preorders))
        for rows in preorders:
            for start in range(1 << n):
                assert closed_sets(rows, start) == closed_sets_by_scan(rows, start), (rows, start)
    assert counts == [1, 1, 4, 29, 355]


def test_down_sets_guard_caps_posets_at_sixteen_elements():
    def chain_poset(n):
        return FinitePoset.from_rows([str(i) for i in range(n)], [((1 << n) - 1) >> i << i for i in range(n)])

    assert down_sets(chain_poset(16)) == [(1 << k) - 1 for k in range(17)]
    with pytest.raises(BoundsTooLarge, match="capped at 16-element posets"):
        down_sets(chain_poset(17))


def test_prime_ideals_three_chain():
    L = three_chain()
    # oracle: brute-force over all down-sets with the literal definitions
    oracle = prime_ideals_bruteforce(L)
    assert [L.down[u] for u in oracle] == [0b001, 0b011]
    assert [L.down[u] for u in prime_generators(L)] == [0b001, 0b011]


def test_prime_ideals_b2():
    L = boolean_lattice(2)
    fast = prime_generators(L)
    assert fast == prime_ideals_bruteforce(L)
    assert len(fast) == 2


def test_prime_ideals_trivial():
    L = build_lattice(["x"], [[True]])
    assert prime_generators(L) == []
    assert prime_ideals_bruteforce(L) == []


def test_join_irreducible_count_matches_primes(lattices4):
    for L in lattices4:
        assert len(prime_generators(L)) == len(join_irreducibles(L))


def complement(lattice, a):
    """Oracle for ``FiniteLattice.is_boolean``: the unique b with a ∨ b = top
    and a ∧ b = bot, or None, by a scan of every b."""
    found = None
    for b in range(lattice.n):
        if lattice.join[a][b] == lattice.top and lattice.meet[a][b] == lattice.bot:
            assert found is None, "complement not unique: lattice not distributive"
            found = b
    return found


def test_complement_examples():
    L = boolean_lattice(2)
    atoms = [a for a in range(4) if a not in (L.bot, L.top)]
    assert complement(L, atoms[0]) == atoms[1]
    M = three_chain()
    assert complement(M, 1) is None
    assert complement(M, M.bot) == M.top


def pseudo_complement(lattice, a):
    """Greatest b with a ∧ b = bot: the join of every such b, which still
    meets a to bot in a distributive lattice."""
    disjoint = [b for b in range(lattice.n) if lattice.meet[a][b] == lattice.bot]
    best = join_fold(lattice, disjoint)
    assert lattice.meet[a][best] == lattice.bot
    return best


def test_pseudo_complement_examples():
    M = three_chain()
    # oracle: scan all b with m ∧ b = 0
    disjoint_from_m = [b for b in range(3) if min(1, b) == 0]
    assert max(disjoint_from_m) == 0
    assert pseudo_complement(M, 1) == 0
    assert pseudo_complement(M, 0) == 2
    L = boolean_lattice(2)
    atoms = [a for a in range(4) if a not in (L.bot, L.top)]
    assert pseudo_complement(L, atoms[0]) == atoms[1]


def test_ideal_principality(lattices4):
    for L in lattices4:
        if L.n > 10:
            continue
        for mask in range(1, 1 << L.n):
            down_closed = all(L.down[a] & ~mask == 0 for a in bits(mask))
            join_closed = all(
                (mask >> L.join[a][b]) & 1 for a in bits(mask) for b in bits(mask)
            )
            if down_closed and join_closed:
                assert L.down[ideal_generator(L, mask)] == mask


def test_find_iso_identity():
    L = three_chain()
    assert [hom.mapping for hom in lattice_isos(L, L)] == [(0, 1, 2)]


def test_find_iso_size_mismatch():
    assert list(lattice_isos(three_chain(), boolean_lattice(2))) == []


def test_find_iso_birkhoff_vs_product(antichain2):
    # product of two 2-chains built explicitly
    labels = ["00", "01", "10", "11"]
    leq = [
        [a2 >= a1 and b2 >= b1 for (a2, b2) in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for (a1, b1) in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    product = build_lattice(labels, leq)
    isos = list(lattice_isos(birkhoff(antichain2), product))
    assert len(isos) == 2 and all(is_lattice_iso(hom) for hom in isos)


def test_validate_hom_catches_nonhom():
    L = boolean_lattice(2)
    atoms = [a for a in range(4) if a not in (L.bot, L.top)]
    bad = LatticeHom(L, L, tuple(atoms[1] if a == atoms[0] else a for a in range(4)))
    report = validate_lattice_hom(bad)
    assert not report.ok


def test_enumerate_homs_chain_counts():
    # oracle: bound-preserving maps of a 3-chain into itself, checked literally
    L = three_chain()
    count = 0
    for m_img in range(3):
        f = [0, m_img, 2]
        ok = all(
            f[min(x, y)] == min(f[x], f[y]) and f[max(x, y)] == max(f[x], f[y])
            for x in range(3)
            for y in range(3)
        )
        count += ok
    homs = enumerate_lattice_homs(L, L)
    assert len(homs) == count == 3


def test_enumerate_homs_two_chain_to_b2():
    homs = enumerate_lattice_homs(three_chain(), boolean_lattice(2))
    # bottom and top fixed, middle goes anywhere: 4 bound-preserving homs
    assert len(homs) == 4


@settings(max_examples=50, deadline=None)
@given(st.integers(0, (1 << 15) - 1), st.integers(2, 6))
def test_lattice_laws_on_random_posets(code, n):
    from hypothesis import assume

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = [1 << i for i in range(n)]
    for k, (i, j) in enumerate(pairs):
        if (code >> k) & 1:
            rows[i] |= 1 << j
    # transitive closure
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if (rows[i] >> j) & 1 and rows[j] & ~rows[i]:
                    rows[i] |= rows[j]
                    changed = True
    poset = FinitePoset(
        [str(i) for i in range(n)], [[(rows[i] >> j) & 1 == 1 for j in range(n)] for i in range(n)]
    )
    assume(len(down_sets(poset)) <= 64)  # global size guard
    L = birkhoff(poset)
    for x in range(L.n):
        for y in range(L.n):
            assert L.meet[x][y] == L.meet[y][x]
            assert L.join[x][L.meet[x][y]] == x
            assert L.meet[x][L.join[x][y]] == x
    assert len(prime_generators(L)) == poset.n


def test_birkhoff_prime_count_sampled_large_posets():
    # spot checks beyond the enumerated corpus: a 7-chain, a 6-fence and a
    # 6-point two-level poset all have one prime ideal per point
    chain7 = FinitePoset([str(i) for i in range(7)], [[i <= j for j in range(7)] for i in range(7)])
    assert len(prime_generators(birkhoff(chain7))) == 7
    fence = FinitePoset(
        list("abcdef"),
        [
            [i == j or (i, j) in {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)} for j in range(6)]
            for i in range(6)
        ],
    )
    assert len(prime_generators(birkhoff(fence))) == 6
    two_level = FinitePoset(
        list("abcdef"),
        [
            [i == j or (i < 3 and j >= 3 and (j - 3) != i) for j in range(6)]
            for i in range(6)
        ],
    )
    assert len(prime_generators(birkhoff(two_level))) == 6


def test_principal_ideal_prime_check():
    L = three_chain()
    assert 0 in prime_ideals_bruteforce(L)
    assert 2 not in prime_ideals_bruteforce(L)  # ↓top is not proper


def test_prime_ideal_oracle_matches_generators_beyond_the_row():
    """The Birkhoff readings against the literal scans, past the
    ``prime-ideal-oracle`` row's ``birkhoff_corpus(4)``: on every lattice of
    ``distributive_lattices(7)``, of ``birkhoff_corpus(5)`` with at most 20
    elements and of ``boolean_lattice(1..4)``, the prime generators (the
    meet-irreducibles, read from the lattice and from its poset) are those
    of the definition scan ``prime_ideals_bruteforce``, and ``is_boolean``
    (every join-irreducible covers bot) agrees with the complement scan."""
    down_set_lattices = [L for L in birkhoff_corpus(5) if L.n <= 20]
    lattices = distributive_lattices(7) + down_set_lattices + [boolean_lattice(k) for k in range(1, 5)]
    total = boolean = 0
    for L in lattices:
        assert prime_generators(L) == prime_generators(FinitePoset.relabeled(L, L.labels)) == prime_ideals_bruteforce(L)
        total += len(prime_generators(L))
        scan = all(complement(L, a) is not None for a in range(L.n))
        assert L.is_boolean() == scan
        boolean += scan
    # Boolean: 2 and 4 elements in the list, 2, 4, 8 and 16 in the corpus and as powers
    assert (len(down_set_lattices), len(lattices), boolean) == (85, 109, 2 + 4 + 4)
    assert total == 475


def test_lattice_isos_guard_survives_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import lattice
        from bistone.corpus import boolean_lattice
        from bistone.errors import InvariantViolation

        lattice.is_lattice_iso = lambda hom: False
        try:
            next(lattice.lattice_isos(boolean_lattice(2), boolean_lattice(2)))
        except InvariantViolation:
            print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]


def test_poset_count_pin_survives_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import corpus
        from bistone.errors import InvariantViolation

        corpus.KNOWN_POSET_COUNTS[3] = 4  # the enumerator finds 5
        try:
            corpus.unlabeled_posets_of_size(3)
        except InvariantViolation:
            print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]
