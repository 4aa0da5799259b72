"""Finite bitopological spaces: topology generation, separation predicates,
the finite Stone lemma against both characterizations, open-set frames,
d-clopen algebras, d-points and d-sobriety."""

import textwrap

import pytest
from test_duality import enumerate_topologies_raw
from test_topology_oracles import find_homeomorphism, is_connected_subset_by_scan, is_pairwise_regular_by_sides

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import boolean_lattice
from bistone.dlattice import dB, dlattice_equal, find_dlattice_iso, omega_of_lattice, validate_dlattice
from bistone.lattice import FinitePoset


@pytest.fixture(scope="module")
def x2(poset2):
    return bt.stone_space_from_poset(poset2)


@pytest.fixture(scope="module")
def indiscrete2():
    return bt.BiTopSpace(["p", "q"], [0b00, 0b11], [0b00, 0b11])


@pytest.fixture(scope="module")
def sierp2():
    return bt.omega_space(["p", "q"], [0b00, 0b10, 0b11])


@pytest.fixture(scope="module")
def point1():
    return bt.BiTopSpace(["x"], [0b0, 0b1], [0b0, 0b1])


def test_generate_topology_empty_subbase():
    assert bt.generate_topology(2, []) == (0b00, 0b11)


def test_generate_topology_sierpinski():
    assert bt.generate_topology(2, [0b10]) == (0b00, 0b10, 0b11)


def test_generate_topology_discrete():
    assert len(bt.generate_topology(3, [0b001, 0b010, 0b100])) == 8


def test_space_rejects_non_topology():
    with pytest.raises(ValueError):
        bt.BiTopSpace(["a", "b", "c"], [0b000, 0b001, 0b010, 0b111], [0b000, 0b111])


def test_specialization_of_poset_space(x2, poset2):
    spec = bt.specialization(x2)
    # the mixed order recovers the poset
    for i in range(2):
        for j in range(2):
            assert ((spec.leq[i] >> j) & 1 == 1) == poset2.leq(i, j)


def test_t0_compact_zero_dimensional(x2, indiscrete2, point1):
    assert bt.is_T0(x2) and bt.is_compact(x2) and bt.is_zero_dimensional(x2)
    assert not bt.is_T0(indiscrete2)
    assert bt.is_compact(indiscrete2)
    assert bt.is_zero_dimensional(indiscrete2)  # base {X} is closed in the other topology
    assert bt.is_T0(point1) and bt.is_compact(point1) and bt.is_zero_dimensional(point1)


def test_order_separation(x2, indiscrete2, sierp2):
    assert bt.is_order_separated(x2) and bt.is_totally_order_separated(x2)
    assert not bt.is_order_separated(indiscrete2)  # the mixed relation is not antisymmetric
    assert not bt.is_totally_order_separated(indiscrete2)
    assert not bt.is_order_separated(sierp2)
    discrete2 = bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11])
    assert bt.is_order_separated(discrete2) and bt.is_totally_order_separated(discrete2)


def test_is_stone_examples(x2, indiscrete2, sierp2, point1):
    assert bt.is_stone(x2)
    assert not bt.is_stone(indiscrete2)
    assert not bt.is_stone(sierp2)
    assert bt.is_stone(point1)
    assert bt.is_stone(bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11]))


def test_stone_characterizations_never_disagree():
    """The lemma against T0 + compact + zero-dimensional and against
    compact + totally order-separated on every labeled pair of topologies
    on at most 3 points, with the labeled Stone counts of A001035 (partial
    orders on n labeled points), on both topology enumerations."""
    stone_counts = []
    for n in (1, 2, 3):
        tops = du.enumerate_topologies(n)
        assert tops == enumerate_topologies_raw(n)
        labels = [f"x{i}" for i in range(n)]
        count = 0
        for tp in tops:
            for tm in tops:
                s = bt.BiTopSpace(labels, tp, tm)
                lemma = bt.is_stone(s)
                assert lemma == (bt.is_T0(s) and bt.is_compact(s) and bt.is_zero_dimensional(s))
                assert lemma == (bt.is_compact(s) and bt.is_totally_order_separated(s))
                count += lemma
        stone_counts.append(count)
    assert stone_counts == [1, 3, 19]


def test_stone_lemma_guard_survives_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import bitop
        from bistone.errors import InvariantViolation
        from bistone.lattice import FinitePoset

        bitop.is_stone = lambda space: False
        try:
            bitop.stone_space_from_poset(FinitePoset(["p", "q"], [[True, True], [False, True]]))
        except InvariantViolation:
            print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]


def test_pairwise_regular_and_extremally_disconnected(x2, point1):
    assert is_pairwise_regular_by_sides(x2)
    assert bt.is_extremally_disconnected(x2)
    assert is_pairwise_regular_by_sides(point1) and bt.is_extremally_disconnected(point1)
    # zero-dimensional implies pairwise regular on the corpus
    assert bt.is_zero_dimensional(x2) and is_pairwise_regular_by_sides(x2)


def test_omega_space_stone_iff_base_space(sierp2):
    assert bt.is_stone(bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11]))
    assert not bt.is_stone(sierp2)
    assert bt.is_stone(bt.omega_space(["x"], [0b0, 0b1]))


def test_dO_one_point_not_degenerate(point1):
    df = bt.dO(point1)
    assert validate_dlattice(df).ok
    assert df.plus.n == 2 and df.minus.n == 2


def test_dO_x2(x2):
    df = bt.dO(x2)
    assert df.plus.n == 3 and df.minus.n == 3
    from bistone.ideals import is_zero_dimensional_dframe

    assert is_zero_dimensional_dframe(df)


def test_dO_matches_space_level_kz(x2, indiscrete2, sierp2, point1):
    from bistone.ideals import is_zero_dimensional_dframe
    from bistone.suites import tot_is_upper_set

    for s in (x2, indiscrete2, sierp2, point1):
        df = bt.dO(s)
        assert tot_is_upper_set(df) == bt.is_compact(s)
        assert is_zero_dimensional_dframe(df) == bt.is_zero_dimensional(s)


def test_dclop_x2(x2):
    A = bt.dclop_algebra(x2)
    assert A.plus.n == 3
    assert A.plus.sets == (0b00, 0b10, 0b11)  # empty, {q}, X as up-sets of p<q


def test_dclop_indiscrete(indiscrete2):
    A = bt.dclop_algebra(indiscrete2)
    assert A.plus.n == 2  # only the empty set and the whole space


def test_dclop_omega_discrete_is_omega_b2():
    s = bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11])
    A = bt.dclop_algebra(s)
    w = omega_of_lattice(boolean_lattice(2))
    assert find_dlattice_iso(A, w) is not None


def test_dclop_equals_dB_dO(x2, indiscrete2, sierp2, point1):
    for s in (x2, indiscrete2, sierp2, point1):
        assert dlattice_equal(bt.dclop_algebra(s), dB(bt.dO(s)).algebra)


def test_d_points_of_bool_object(B):
    spec = du.spectrum(B)
    assert spec.space.n == 1 and len(spec.primes) == 1


def test_d_points_of_dO_x2(x2):
    hom = find_homeomorphism(du.dspec(bt.dO(x2)), x2)
    assert hom is not None


def test_d_points_of_lambda3(lam3):
    space = du.dspec(lam3)
    assert space.n == 2
    assert bt.is_stone(space)


def test_d_sober_examples(x2, indiscrete2, point1):
    assert bt.is_d_sober(x2)
    assert not bt.is_d_sober(indiscrete2)  # both points generate the same d-point
    assert bt.is_d_sober(point1)


def test_stone_space_from_poset_examples(poset2, antichain2):
    x2 = bt.stone_space_from_poset(poset2)
    assert x2.tau_plus == (0b00, 0b10, 0b11)
    assert x2.tau_minus == (0b00, 0b01, 0b11)
    single = bt.stone_space_from_poset(FinitePoset(["x"], [[True]]))
    assert single.n == 1
    disc = bt.stone_space_from_poset(antichain2)
    assert len(disc.tau_plus) == 4 and len(disc.tau_minus) == 4


def test_continuity(x2):
    assert bt.is_continuous((0, 1), x2, x2)
    assert bt.is_continuous((0, 0), x2, x2)  # constant to the bottom point
    assert not bt.is_continuous((1, 0), x2, x2)  # the order-reversing swap


def test_homeomorphism_search_respects_structure(x2, indiscrete2):
    assert find_homeomorphism(x2, indiscrete2) is None
    relabeled = bt.BiTopSpace(["a", "b"], x2.tau_plus, x2.tau_minus)
    assert find_homeomorphism(x2, relabeled) is not None


def test_stone_type_correspondence(x2, indiscrete2, point1):
    for s in (x2, indiscrete2, point1):
        maps = set(bt.continuous_maps_to_bool_space(s))
        pairs = [
            bt.map_from_dclopen_pair(s, u, v)
            for u in bt.plus_open_minus_closed(s)
            for v in bt.minus_open_plus_closed(s)
        ]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == maps


def test_connectedness_predicate(x2, indiscrete2):
    # in the indiscrete space the whole space cannot be split
    assert is_connected_subset_by_scan(indiscrete2, 0b11)
    assert not bt.connected_subsets_are_singletons(indiscrete2)
    disc = bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11])
    assert not is_connected_subset_by_scan(disc, 0b11)
    assert bt.connected_subsets_are_singletons(disc)
    # the Stone space of p < q splits into its up-set {q} and down-set {p}
    assert not is_connected_subset_by_scan(x2, 0b11)
    assert bt.connected_subsets_are_singletons(x2)


def test_construction_guards_survive_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import bitop, dlattice
        from bistone.corpus import three_chain
        from bistone.errors import InvariantViolation
        from bistone.lattice import FinitePoset
        from bistone.report import StructReport

        x2 = bitop.stone_space_from_poset(FinitePoset(["p", "q"], [[True, True], [False, True]]))
        failing = lambda A: StructReport.failed("patched")
        bitop.validate_dboolean = dlattice.validate_dboolean = failing
        for build, arg in ((bitop.dclop_algebra, x2), (dlattice.lambda_of_dislat, three_chain())):
            try:
                build(arg)
            except InvariantViolation:
                print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1", "raised", "1"]
