"""The topology code against the forms it replaced, kept here as test-only
oracles: ``generate_topology`` against the fixpoint loops and the two
passes of ∩ then ∪, ``BiTopSpace``'s closure check against the scan over
the sorted tuple, the two-sided predicates against one block per side,
and ``dspec_equals_dpt_idl`` against the form that enumerated the primes of
the ideal frame again and built their space from their values, and its
False on φ families that are no topologies.  Pairwise regularity is defined here only, one block per
side, and checked against zero-dimensionality, which implies it.  The
literal Pervin subset scan is the oracle for the finite connectedness
lemma of ``connected_subsets_are_singletons``."""

import random
from itertools import combinations, permutations, product

import pytest
from test_census_kernels import merge_two_opens
from test_pair_scan_oracles import prime_opens

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import chain, unlabeled_posets
from bistone.dlattice import bool_dlattice, lambda_of_dislat, omega_of_lattice
from bistone.errors import BoundsTooLarge
from bistone.ideals import enumerate_prime_d_ideals, idl_dframe
from bistone.lattice import birkhoff, bits, mask_of
from bistone.suites import all_dlattices


def generate_topology_by_fixpoint(n, subbase):
    """Oracle: close under intersections until nothing new appears, then
    under unions the same way."""
    full = (1 << n) - 1
    inters = {full}
    base = set(int(s) for s in subbase)
    while True:
        new = {s & t for s in base for t in inters} - inters
        if not new:
            break
        inters |= new
    opens = {0} | inters
    while True:
        new = {u | v for u in opens for v in opens} - opens
        if not new:
            break
        opens |= new
    return tuple(sorted(opens, key=lambda m: (m.bit_count(), m)))


def generate_topology_by_two_passes(n, subbase):
    """Oracle: close under finite intersections (the empty intersection is
    the whole space), then unions, one pass each.  After subbase member s is
    taken in, the set holds every intersection of the members taken so far,
    since an intersection that uses s is s ∩ t for t one that does not
    (s ∩ s = s).  The set is closed under ∩, so a member already in it adds
    nothing.  The union pass is the same argument with ∪."""
    inters = {(1 << n) - 1}
    for s in set(map(int, subbase)):
        if s not in inters:
            inters |= {s & t for t in inters}
    opens = {0}
    for u in inters:
        if u not in opens:
            opens |= {u | v for v in opens}
    return tuple(sorted(opens, key=lambda m: (m.bit_count(), m)))


def closure_failure_by_tuple_scan(name, family, full):
    """Oracle: the message ``BiTopSpace`` raises for one family, from
    membership tests on the sorted tuple, or None."""
    fam = tuple(sorted(set(int(u) for u in family), key=lambda m: (m.bit_count(), m)))
    if 0 not in fam or full not in fam:
        return f"{name} must contain the empty set and the whole space"
    for u, v in combinations(fam, 2):
        if (u | v) not in fam:
            return f"{name} not closed under union"
        if (u & v) not in fam:
            return f"{name} not closed under intersection"
    return None


def space_failure(labels, tau_plus, tau_minus):
    try:
        bt.BiTopSpace(labels, tau_plus, tau_minus)
    except ValueError as exc:
        return str(exc)
    return None


def all_families(n):
    """Every family of subsets of n points."""
    subsets = range(1 << n)
    return [[s for s in subsets if (code >> s) & 1] for code in range(1 << (1 << n))]


@pytest.fixture(scope="module")
def spectra():
    return [du.spectrum(lambda_of_dislat(birkhoff(p))) for p in unlabeled_posets(5)]


def test_generate_topology_matches_fixpoint_on_small_families():
    for n in range(4):
        for fam in all_families(n):
            assert bt.generate_topology(n, fam) == generate_topology_by_fixpoint(n, fam), (n, fam)


def test_generate_topology_matches_fixpoint_on_corpus_opens(spectra):
    assert len(spectra) == 87
    for spec in spectra:
        n = len(spec.primes)
        for fam in (spec.phi_plus, spec.phi_minus):
            assert bt.generate_topology(n, fam) == generate_topology_by_fixpoint(n, fam)


def test_generate_topology_matches_two_passes(spectra):
    """Seeded random subbases of up to 7 members on 0-6 points, then the φ₊
    and φ₋ subbases of the spectra of ``dbool_corpus(5)``."""
    rng = random.Random(29)
    for n in range(7):
        for _ in range(300):
            subbase = [rng.randrange(1 << n) for _ in range(rng.randrange(8))]
            assert bt.generate_topology(n, subbase) == generate_topology_by_two_passes(n, subbase), (n, subbase)
    for spec in spectra:
        n = len(spec.primes)
        for fam in (spec.phi_plus, spec.phi_minus):
            assert bt.generate_topology(n, fam) == generate_topology_by_two_passes(n, fam)


def test_closure_check_matches_tuple_scan_per_side():
    for n in range(4):
        labels = [f"x{i}" for i in range(n)]
        full = (1 << n) - 1
        indiscrete = [0, full]
        for fam in all_families(n):
            assert space_failure(labels, fam, indiscrete) == closure_failure_by_tuple_scan("tau_plus", fam, full)
            assert space_failure(labels, indiscrete, fam) == closure_failure_by_tuple_scan("tau_minus", fam, full)
            if closure_failure_by_tuple_scan("tau_plus", fam, full) is None:
                assert bt.BiTopSpace(labels, fam, fam).tau_plus == generate_topology_by_fixpoint(n, fam)


def test_closure_check_names_plus_before_minus():
    for n in range(3):
        labels = [f"x{i}" for i in range(n)]
        full = (1 << n) - 1
        for fp, fm in product(all_families(n), repeat=2):
            plus = closure_failure_by_tuple_scan("tau_plus", fp, full)
            minus = closure_failure_by_tuple_scan("tau_minus", fm, full)
            assert space_failure(labels, fp, fm) == (plus if plus is not None else minus)


def test_corpus_opens_are_accepted_as_topologies(spectra):
    for spec in spectra:
        full = (1 << len(spec.primes)) - 1
        assert closure_failure_by_tuple_scan("tau_plus", spec.phi_plus, full) is None
        assert closure_failure_by_tuple_scan("tau_minus", spec.phi_minus, full) is None


# ---------------------------------------------------------------------------
# two-sided predicates, one block per side


def is_pairwise_regular_by_sides(space):
    for u in space.tau_plus:
        for x in bits(u):
            if not any((v >> x) & 1 and space.closure(v, space.tau_minus) & ~u == 0 for v in space.tau_plus):
                return False
    for v in space.tau_minus:
        for x in bits(v):
            if not any((u >> x) & 1 and space.closure(u, space.tau_plus) & ~v == 0 for u in space.tau_minus):
                return False
    return True


def is_extremally_disconnected_by_sides(space):
    for u in space.tau_plus:
        if space.closure(u, space.tau_minus) not in space.tau_plus:
            return False
    for v in space.tau_minus:
        if space.closure(v, space.tau_plus) not in space.tau_minus:
            return False
    return True


def is_continuous_by_sides(mapping, X, Y):
    return all(bt.preimage(mapping, X.n, u) in X.tau_plus for u in Y.tau_plus) and all(
        bt.preimage(mapping, X.n, v) in X.tau_minus for v in Y.tau_minus
    )


def is_homeomorphism_by_sides(mapping, X, Y):
    if sorted(mapping) != list(range(Y.n)):
        return False
    image_plus = {mask_of(mapping[x] for x in bits(u)) for u in X.tau_plus}
    image_minus = {mask_of(mapping[x] for x in bits(v)) for v in X.tau_minus}
    return image_plus == set(Y.tau_plus) and image_minus == set(Y.tau_minus)


def find_homeomorphism(X, Y):
    """Oracle: the first point bijection, over all of them, that is a
    homeomorphism X → Y, or None (small spaces only)."""
    if X.n != Y.n or len(X.tau_plus) != len(Y.tau_plus) or len(X.tau_minus) != len(Y.tau_minus):
        return None
    if X.n > 8:
        raise BoundsTooLarge("homeomorphism search capped at 8 points")

    def profile(space, x):
        return tuple(
            sorted(u.bit_count() for u in opens if (u >> x) & 1) for opens in (space.tau_plus, space.tau_minus)
        )

    prof_X = [profile(X, x) for x in range(X.n)]
    prof_Y = [profile(Y, y) for y in range(Y.n)]
    if sorted(prof_X) != sorted(prof_Y):
        return None
    for perm in permutations(range(Y.n)):
        if all(prof_X[x] == prof_Y[perm[x]] for x in range(X.n)) and bt.is_homeomorphism(perm, X, Y):
            return perm
    return None


def small_spaces(max_points):
    for n in range(1, max_points + 1):
        labels = [f"x{i}" for i in range(n)]
        tops = du.enumerate_topologies(n)
        for tp, tm in product(tops, repeat=2):
            yield bt.BiTopSpace(labels, tp, tm)


def test_two_sided_predicates_match_the_per_side_blocks():
    target = bt.bool_bitop_space()
    spaces = list(small_spaces(3))
    assert len(spaces) == 1 + 4**2 + 29**2
    for X in spaces:
        assert is_pairwise_regular_by_sides(X) or not bt.is_zero_dimensional(X)
        assert bt.is_extremally_disconnected(X) == is_extremally_disconnected_by_sides(X)
        for mapping in product(range(4), repeat=X.n):
            assert bt.is_continuous(mapping, X, target) == is_continuous_by_sides(mapping, X, target)
    for X in spaces[:1 + 4**2 + 20]:
        for Y in spaces:
            if Y.n == X.n:
                for perm in permutations(range(X.n)):
                    assert bt.is_homeomorphism(perm, X, Y) == is_homeomorphism_by_sides(perm, X, Y)


# ---------------------------------------------------------------------------
# dSpec = dpt ∘ idl with one prime enumeration


def d_point_space(df):
    """Oracle: the d-points of df, its prime d-ideals in enumeration order,
    with a plus open {p : p(a, 0) = tt} per plus element a and a minus open
    {p : p(0, b) = ff} per minus element b, read off their values; the
    families must be topologies as they stand."""
    primes = enumerate_prime_d_ideals(df)
    return bt.BiTopSpace([f"g{k}" for k in range(len(primes))], *prime_opens(df, primes)), primes


def dspec_equals_dpt_idl_by_two_enumerations(dl):
    """Oracle: enumerate the d-points of the ideal frame on their own and
    match them with the primes of dl by a homeomorphism."""
    spec = du.spectrum(dl)
    pts_space, pts = d_point_space(idl_dframe(dl))
    want = {g.values: k for k, g in enumerate(spec.primes)}
    if sorted(p.values for p in pts) != sorted(want):
        return False
    mapping = tuple(want[p.values] for p in pts)
    return bt.is_homeomorphism(mapping, pts_space, spec.space)


def dspec_inputs(bundle):
    return [lambda_of_dislat(birkhoff(p)) for p in unlabeled_posets(5)] + all_dlattices(bundle)


def test_dspec_equals_dpt_idl_matches_two_enumerations(bundle):
    inputs = dspec_inputs(bundle)
    assert len(inputs) > 87
    for dl in inputs:
        assert du.dspec_equals_dpt_idl(dl) is dspec_equals_dpt_idl_by_two_enumerations(dl) is True


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_dspec_equals_dpt_idl_is_false_when_a_family_is_no_topology(monkeypatch, side):
    """With two opens of φ₊ or φ₋ merged, that family is no longer a
    topology: the function returns False instead of raising.  The inputs
    are built after patching, the four-element object too (not the cached
    ``bool_dlattice()``, which may hold a spectrum from an earlier test), so
    each spectrum is built by the patched kernel."""
    merge_two_opens(monkeypatch, side)
    inputs = [bool_dlattice.__wrapped__(), lambda_of_dislat(chain(3)), omega_of_lattice(chain(3))]
    assert [du.dspec_equals_dpt_idl(dl) for dl in inputs] == [False] * 3


def test_ideal_frame_has_the_primes_of_its_input(bundle):
    """The docstring's claim: the same value tuples in the same order."""
    for dl in dspec_inputs(bundle):
        got = [g.values for g in enumerate_prime_d_ideals(idl_dframe(dl))]
        assert got == [g.values for g in enumerate_prime_d_ideals(dl)]


# ---------------------------------------------------------------------------
# Pervin connectedness: the literal subset scan against the finite lemma


def is_connected_subset_by_scan(space, subset):
    """Oracle: no plus-open U and minus-open V cover the subset S with S∩U
    and S∩V nonempty and disjoint (the formalization in ``bitop``)."""
    for u in space.tau_plus:
        for v in space.tau_minus:
            if subset & ~(u | v):
                continue
            su, sv = subset & u, subset & v
            if su and sv and su & sv == 0:
                return False
    return True


def connected_subsets_are_singletons_by_scan(space):
    """Oracle: every subset with two points or more is disconnected, over
    all 2ⁿ subsets."""
    for subset in range(1, space.full + 1):
        if subset.bit_count() >= 2 and is_connected_subset_by_scan(space, subset):
            return False
    return True


def test_connectedness_lemma_matches_the_scan_on_three_points():
    spaces = list(small_spaces(3))
    assert len(spaces) == 858
    verdicts = [bt.connected_subsets_are_singletons(X) for X in spaces]
    assert verdicts == [connected_subsets_are_singletons_by_scan(X) for X in spaces]
    assert verdicts.count(True) == 1 + 7 + 199  # labeled, per size


def test_connectedness_lemma_matches_the_scan_on_sampled_five_point_spaces():
    rng = random.Random(2025)
    labels = [f"x{i}" for i in range(5)]

    def topology():
        return bt.generate_topology(5, [rng.randrange(32) for _ in range(rng.randrange(10))])

    spaces = [bt.BiTopSpace(labels, topology(), topology()) for _ in range(2000)]
    verdicts = [bt.connected_subsets_are_singletons(X) for X in spaces]
    assert verdicts == [connected_subsets_are_singletons_by_scan(X) for X in spaces]
    assert verdicts.count(True) == 388


def test_connectedness_needs_more_than_the_two_point_subspaces():
    """Every two-point subset of this space is disconnected, yet the whole
    space is connected, so a test of pairs alone would call it hereditarily
    disconnected."""
    X = bt.BiTopSpace([f"x{i}" for i in range(4)], [0, 1, 2, 3, 5, 7, 10, 11, 15], [0, 1, 2, 3, 6, 7, 9, 11, 15])
    assert not any(is_connected_subset_by_scan(X, pair) for pair in (3, 5, 6, 9, 10, 12))
    assert is_connected_subset_by_scan(X, X.full)
    assert not bt.connected_subsets_are_singletons(X)
    assert not connected_subsets_are_singletons_by_scan(X)
