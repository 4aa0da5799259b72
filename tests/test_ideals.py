"""d-ideal/d-filter maps, prime d-ideals, the sandwich property, the ideal
frame and the finite collapse of the equivalence with compact
zero-dimensional d-frames."""

import textwrap

import numpy as np
import pytest

from test_dlattice import compose, logic_leq, one, zero
from test_lattice import join_fold
from test_pair_scan_oracles import prime_sandwich_by_candidates
from test_validate_oracle import _q2_candidates

from bistone import duality as du
from bistone import ideals
from bistone.corpus import dbool_corpus
from bistone.dlattice import (
    DBooleanAlgebra,
    DLattice,
    DLatticeHom,
    bool_dlattice,
    d_complemented_sides,
    dB,
    enumerate_dlattice_homs,
    lambda_of_dislat,
    validate_dlattice,
    validate_dlattice_hom,
)
from bistone.errors import CoveringViolation, InvariantViolation
from bistone.ideals import (
    B0,
    B1,
    BFF,
    BTT,
    BOOL_PIDS,
    BMap,
    enumerate_d_filter_maps,
    enumerate_d_ideal_maps,
    enumerate_prime_d_ideals,
    filter_generators,
    four_case_values,
    ideal_map,
    idl_dframe,
    is_hom_to_bool_object,
    is_prime_d_ideal,
    is_zero_dimensional_dframe,
    require_covering,
    validate_d_filter_map,
    validate_d_ideal_map,
)
from bistone.lattice import bits, ideal_generator
from bistone.suites import all_dlattices, tot_is_upper_set


def covered_ideal_map(dl, u, v):
    """The d-ideal map with zero sets ↓u and ↓v, which must cover con."""
    require_covering(dl, dl.plus.down[u], dl.minus.down[v], False)
    return ideal_map(dl, u, v)


def covered_filter_map(dl, u, v):
    """The d-filter map with one sets ↑u and ↑v, which must cover tot."""
    require_covering(dl, dl.plus.up[u], dl.minus.up[v], True)
    return BMap(dl, four_case_values(dl, dl.plus.up[u], dl.minus.up[v]))


def test_codomain_orders():
    # information order: 0 below tt,ff below 1; tt and ff incomparable
    assert B0 | BTT == BTT and B0 | BFF == BFF and BTT | B1 == B1
    assert BTT | BFF != BFF and BFF | BTT != BTT
    # logic order of the four-element object: ff at the bottom, tt at the
    # top, 0 and 1 incomparable
    def leq(x, y):
        return logic_leq(bool_dlattice(), BOOL_PIDS[x], BOOL_PIDS[y])

    assert leq(BFF, B0) and leq(B0, BTT)
    assert leq(BFF, B1) and leq(B1, BTT)
    assert not leq(B0, B1) and not leq(B1, B0)


def test_d_ideal_map_on_bool_bottom_pair(B):
    g = covered_ideal_map(B, 0, 0)
    assert g(zero(B)) == B0 and g(B.tt) == BTT and g(B.ff) == BFF and g(one(B)) == B1
    assert validate_d_ideal_map(B, g).ok


def test_d_ideal_map_on_bool_full_pair(B):
    g = covered_ideal_map(B, 1, 1)
    assert all(v == B0 for v in g.values)
    assert g(one(B)) == B0


def test_d_ideal_covering_on_omega3(omega3):
    # ({0},{0}) covers all five consistent pairs since each has a 0 coordinate
    g = covered_ideal_map(omega3, 0, 0)
    assert validate_d_ideal_map(omega3, g).ok


def test_d_ideal_covering_violation(lam3):
    # ({0},{0}) misses the consistent diagonal pair (m,m) of lambda(3-chain)
    with pytest.raises(CoveringViolation) as exc:
        require_covering(lam3, lam3.plus.down[0], lam3.minus.down[2], False)
    assert exc.value.witness is not None


def test_d_filter_map_examples(B):
    f = covered_filter_map(B, 1, 1)
    assert f(one(B)) == B1 and f(B.tt) == BTT and f(B.ff) == BFF and f(zero(B)) == B0
    full = covered_filter_map(B, 0, 0)
    assert full(zero(B)) == B1
    assert validate_d_filter_map(B, full).ok


def test_d_filter_covering_on_omega3(omega3):
    f = covered_filter_map(omega3, 2, 2)
    assert validate_d_filter_map(omega3, f).ok


def test_constant_maps_fail_validators(B):
    const1 = BMap(B, tuple(B1 for _ in range(B.size)))
    rep = validate_d_ideal_map(B, const1)
    assert not rep.ok and rep.axiom == "g(tt)<=tt"
    const0 = BMap(B, tuple(B0 for _ in range(B.size)))
    rep = validate_d_filter_map(B, const0)
    assert not rep.ok and rep.axiom == "f(tt)>=tt"


def test_pair_map_roundtrip(omega3, lam3, B):
    for dl in (omega3, lam3, B):
        for g in enumerate_d_ideal_maps(dl):
            u, v = ideal_generator(dl.plus, g.zero_set_plus()), ideal_generator(dl.minus, g.zero_set_minus())
            assert covered_ideal_map(dl, u, v).values == g.values
        for f in enumerate_d_filter_maps(dl):
            assert covered_filter_map(dl, *filter_generators(f)).values == f.values


def test_filter_generators_are_least_members(omega3):
    """On ω(3-chain) = 3-chain × 3-chain, the d-filter map with one sets ↑1
    and ↑2 reads back as (1, 2); a map whose one sets have no least member
    is rejected."""
    f = covered_filter_map(omega3, 1, 2)
    assert filter_generators(f) == (1, 2)
    assert [filter_generators(f) for f in enumerate_d_filter_maps(omega3)][:3] == [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(ValueError, match="not a principal filter"):
        filter_generators(BMap(omega3, (B0,) * omega3.size))


def test_prime_triple_equivalence_exhaustive(B):
    # oracle: every one of the 4^4 maps, all three characterizations
    count = 0
    for code in range(4 ** B.size):
        values = tuple((code >> (2 * k)) & 3 for k in range(B.size))
        m = BMap(B, values)
        two = validate_d_ideal_map(B, m).ok and validate_d_filter_map(B, m).ok
        assert two == is_hom_to_bool_object(B, m)
        count += two
    assert count == 1  # the unique prime d-ideal of the dualizing object


def test_prime_counts(B, lam3, b2):
    assert len(enumerate_prime_d_ideals(B)) == 1
    assert len(ideals._primes_structural(lam3)) == 2
    assert len(enumerate_prime_d_ideals(lam3)) == 2
    lamb2 = lambda_of_dislat(b2)
    assert len(ideals._primes_structural(lamb2)) == 2
    assert len(enumerate_prime_d_ideals(lamb2)) == 2


def test_structural_primes_require_covering(lam3):
    """With every pair made consistent, ``_primes_structural`` rejects its
    first pair, ↓0 and †(P ∖ ↓0) = ↓c1 on the reversed minus chain: the
    lowest pair with no coordinate in either is (c1, top of minus)."""
    everything = (1 << lam3.size) - 1
    grown = DBooleanAlgebra(lam3.plus, lam3.minus, everything, lam3.tot_mask, lam3.dagger)
    with pytest.raises(CoveringViolation, match=r"^consistent pair \(c1,0\) not covered$") as exc:
        ideals._primes_structural(grown)
    assert exc.value.witness == (1, lam3.minus.top)


def test_prime_paths_agree(lam3, b2, B):
    for A in (B, lam3, lambda_of_dislat(b2)):
        st = sorted(g.values for g in ideals._primes_structural(A))
        br = sorted(g.values for g in enumerate_prime_d_ideals(A))
        assert st == br


def prime_d_ideal_characterization(A, g):
    """On a d-Boolean algebra: a d-ideal map is prime iff its zero set and
    the pairing determine each other on both sides."""
    assert validate_d_ideal_map(A, g).ok
    for a in range(A.plus.n):
        if (g.on_plus(a) == B0) != (g.on_minus(A.dagger[a]) == BFF):
            return False
    for b in range(A.minus.n):
        if (g.on_minus(b) == B0) != (g.on_plus(A.dagger_inv[b]) == BTT):
            return False
    return True


def test_characterization_examples(B, lam3):
    g = enumerate_prime_d_ideals(B)[0]
    assert prime_d_ideal_characterization(B, g)
    # the d-ideal with everything zero on the plus side is not prime
    whole = covered_ideal_map(lam3, 2, 2)
    assert validate_d_ideal_map(lam3, whole).ok
    assert not prime_d_ideal_characterization(lam3, whole)
    assert not is_prime_d_ideal(lam3, whole)


def test_characterization_agrees_with_primality(lam3, b2):
    for A in (lam3, lambda_of_dislat(b2)):
        for g in enumerate_d_ideal_maps(A):
            assert prime_d_ideal_characterization(A, g) == is_prime_d_ideal(A, g)


def test_sandwich_prime_input_returns_itself(B):
    g = enumerate_prime_d_ideals(B)[0]
    h = prime_sandwich_by_candidates(B, g, g)
    assert h.values == g.values


def test_sandwich_on_dboolean_forces_equality(lam3, b2):
    for A in (lam3, lambda_of_dislat(b2)):
        for f in enumerate_d_filter_maps(A):
            for g in enumerate_d_ideal_maps(A):
                if f.leq(g):
                    h = prime_sandwich_by_candidates(A, f, g)
                    assert h.values == f.values == g.values


def test_sandwich_on_omega3(omega3):
    f = covered_filter_map(omega3, 2, 2)
    g = covered_ideal_map(omega3, 1, 1)
    assert f.leq(g)
    h = prime_sandwich_by_candidates(omega3, f, g)
    assert is_prime_d_ideal(omega3, h)
    assert f.leq(h) and h.leq(g)


def test_sandwich_precondition(omega3):
    f = covered_filter_map(omega3, 0, 0)
    g = covered_ideal_map(omega3, 1, 1)
    assert not f.leq(g)
    assert prime_sandwich_by_candidates(omega3, f, g) is None  # f ≤ h ≤ g would give f ≤ g


def test_dbool_filter_below_ideal_equal(lam3):
    for f in enumerate_d_filter_maps(lam3):
        for g in enumerate_d_ideal_maps(lam3):
            if f.leq(g):
                assert f.values == g.values


def test_proper_filter_join_decomposition(omega3):
    for f in enumerate_d_filter_maps(omega3):
        if f(omega3.tt) != BTT or f(omega3.ff) != BFF:
            continue
        for a in range(omega3.plus.n):
            for b in range(omega3.minus.n):
                assert f.value_at(a, b) == f.on_plus(a) | f.on_minus(b)


def test_proper_ideal_meet_decomposition(omega3):
    for g in enumerate_d_ideal_maps(omega3):
        if g(omega3.tt) != BTT or g(omega3.ff) != BFF:
            continue
        for a in range(omega3.plus.n):
            for b in range(omega3.minus.n):
                assert g.value_at(a, b) == g.value_at(a, omega3.minus.top) & g.value_at(omega3.plus.top, b)


def test_idl_of_bool_is_bool(B):
    df = idl_dframe(B)
    assert df.con_mask == B.con_mask and df.tot_mask == B.tot_mask
    assert df.plus.n == 2 and df.minus.n == 2


def test_idl_collapses_on_finite(lam3, omega3):
    for dl in (lam3, omega3):
        df = idl_dframe(dl)
        assert df.con_mask == dl.con_mask and df.tot_mask == dl.tot_mask


def test_idl_of_dboolean_zero_dimensional(lam3, b2):
    for A in (lam3, lambda_of_dislat(b2)):
        df = idl_dframe(A)
        assert tot_is_upper_set(df)
        assert is_zero_dimensional_dframe(df)


def identity_hom(source, target):
    """The identity on indices, as a hom from source to target."""
    return DLatticeHom(source, target, tuple(range(source.plus.n)), tuple(range(source.minus.n)))


def test_eta_is_iso_on_bool(B):
    df = idl_dframe(B)
    assert validate_dlattice_hom(identity_hom(B, df)).ok
    assert validate_dlattice_hom(identity_hom(df, B)).ok


def test_eta_factorization_unique(B, omega3):
    """η is the identity on indices, so f factors through it as f itself,
    and exhaustively no other hom out of the ideal frame does."""
    df = idl_dframe(B)
    f = enumerate_dlattice_homs(B, omega3)[0]
    eta = identity_hom(B, df)
    through_eta = [
        (h.fplus, h.fminus)
        for h in enumerate_dlattice_homs(df, omega3)
        if compose(h, eta).fplus == f.fplus and compose(h, eta).fminus == f.fminus
    ]
    assert through_eta == [(f.fplus, f.fminus)]


def tot_is_upper_set_by_pairs(dl):
    """Oracle: every pair above a total pair is total."""
    P, M = dl.plus, dl.minus
    return all(
        dl.in_tot(dl.pid(a2, b2))
        for a, b in map(dl.unpid, bits(dl.tot_mask))
        for a2 in range(P.n)
        for b2 in range(M.n)
        if P.leq(a, a2) and M.leq(b, b2)
    )


def test_compactness_literal(omega3, B, lam3):
    for dl in (omega3, B, lam3):
        assert tot_is_upper_set(dl) and tot_is_upper_set_by_pairs(dl)
        lowered = DLattice(dl.plus, dl.minus, dl.con_mask, dl.tot_mask & ~(1 << dl.pid(dl.plus.top, dl.minus.top)))
        assert not tot_is_upper_set(lowered) and not tot_is_upper_set_by_pairs(lowered)


def test_zero_dimensionality(omega3, lam3, b2, B):
    assert not is_zero_dimensional_dframe(omega3)  # the middle is not reachable
    assert is_zero_dimensional_dframe(lam3)
    assert is_zero_dimensional_dframe(lambda_of_dislat(b2))
    assert is_zero_dimensional_dframe(B)


def test_finite_collapse_lemma(bundle):
    """The lemma of ``idl_dframe`` on the 37 d-lattices of the default
    bundle and the 135 valid bound-4 Q2 candidates: idl is the input
    relabelled, tot is an up-set, and zero-dimensional (every element the
    join of the d-complemented elements below it) iff every element is
    d-complemented iff the embeddings of dB are the identity, and then ε
    and κ, the identity on indices, are homs both ways."""
    dls = all_dlattices(bundle) + [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok]
    assert len(dls) == 172
    zero_dimensional = 0
    for dl in dls:
        df = idl_dframe(dl)
        for got, L in ((df.plus, dl.plus), (df.minus, dl.minus)):
            assert (got.up, got.bot, got.top, got.meet, got.join) == (L.up, L.bot, L.top, L.meet, L.join)
            assert got.labels == tuple(f"↓{lab}" for lab in L.labels)
        assert (df.con_mask, df.tot_mask) == (dl.con_mask, dl.tot_mask)
        assert tot_is_upper_set_by_pairs(dl)
        sides = tuple(zip((dl.plus, dl.minus), d_complemented_sides(dl)))
        by_joins = all(join_fold(L, [b for b in base if L.leq(b, x)]) == x for L, base in sides for x in range(L.n))
        every = all(len(base) == L.n for L, base in sides)
        cor = dB(dl)
        identity = (cor.embed_plus, cor.embed_minus) == (tuple(range(dl.plus.n)), tuple(range(dl.minus.n)))
        assert by_joins == every == identity == is_zero_dimensional_dframe(dl)
        if identity:
            zero_dimensional += 1
            ideal_frame = idl_dframe(cor.algebra)
            assert validate_dlattice_hom(identity_hom(ideal_frame, dl)).ok  # ε
            assert validate_dlattice_hom(identity_hom(dl, ideal_frame)).ok  # κ
    assert zero_dimensional == 40


def test_epsilon_kappa_identity_on_bool(B):
    cor = dB(B)
    assert (cor.embed_plus, cor.embed_minus) == (tuple(range(2)), tuple(range(2)))


def test_epsilon_kappa_on_lambda_b2(b2):
    df = idl_dframe(lambda_of_dislat(b2))
    cor = dB(df)
    assert (cor.embed_plus, cor.embed_minus) == (tuple(range(df.plus.n)), tuple(range(df.minus.n)))
    ideal_frame = idl_dframe(cor.algebra)
    assert validate_dlattice_hom(identity_hom(ideal_frame, df)).ok
    assert validate_dlattice_hom(identity_hom(df, ideal_frame)).ok


def test_epsilon_kappa_rejects_non_zero_dimensional(omega3):
    """Not zero-dimensional, so dB keeps a proper part and ε is no
    bijection."""
    assert not is_zero_dimensional_dframe(omega3)
    cor = dB(omega3)
    assert (cor.embed_plus, cor.embed_minus) == ((0, 2), (0, 2))


def test_d_complemented_ideals_bool(B):
    plus, minus = d_complemented_sides(idl_dframe(B))
    assert (plus, minus) == d_complemented_sides(B) and len(plus) == 2 and len(minus) == 2


def test_d_complemented_ideals_omega3(omega3):
    plus, minus = d_complemented_sides(idl_dframe(omega3))
    assert plus == [0, 2]
    assert minus == [0, 2]


def test_d_complemented_ideals_lambda(lam3):
    plus, _ = d_complemented_sides(idl_dframe(lam3))
    assert len(plus) == lam3.plus.n  # all principal ideals


def test_dcomplemented_elements_compact(omega3):
    # directed-closure formulation of compactness for d-complemented elements
    L = omega3.plus
    for a in (0, 2):
        for mask in range(1, 1 << L.n):
            members = list(bits(mask))
            if not L.leq(a, join_fold(L, members)):
                continue
            closure = set(members)
            while True:
                new = {L.join[x][y] for x in closure for y in closure} - closure
                if not new:
                    break
                closure |= new
            assert any(L.leq(a, d) for d in closure)


@pytest.fixture(scope="module")
def kernel_inputs(omega3):
    """The d-Boolean corpus up to 5-element posets, omega3, and every valid
    Q2 candidate on coordinate lattices of size 2..4."""
    out = list(dbool_corpus(5)) + [omega3]
    lattices = du._distributive_lattices_upto(4)
    for plus in lattices:
        for minus in lattices:
            shell = DLattice(plus, minus, 0, 0)
            seed = (1 << shell.tt) | (1 << shell.ff)
            cons = [c for c in du._down_sets_of_product(shell, seed)[0] if du._logic_closed(shell, c)]
            tots = [t for t in du._up_sets_containing(shell, seed) if du._logic_closed(shell, t)]
            for con in cons:
                for tot in tots:
                    cand = DLattice(plus, minus, con, tot)
                    if validate_dlattice(cand).ok:
                        out.append(cand)
    assert len(out) == 87 + 1 + 135
    return out


def _matrix(dl, mask):
    out = np.zeros((dl.plus.n, dl.minus.n), dtype=bool)
    for p in bits(mask):
        out[dl.unpid(p)] = True
    return out


def _idl_masks_by_blocks(dl):
    """Oracle: con/tot of the ideal frame from numpy blocks of the con/tot
    matrices."""
    con_mat, tot_mat = _matrix(dl, dl.con_mask), _matrix(dl, dl.tot_mask)
    con = tot = 0
    for i in range(dl.plus.n):
        rows = list(bits(dl.plus.down[i]))
        for j in range(dl.minus.n):
            cols = list(bits(dl.minus.down[j]))
            if con_mat[np.ix_(rows, cols)].all():
                con |= 1 << dl.pid(i, j)
            if tot_mat[np.ix_(rows, cols)].any():
                tot |= 1 << dl.pid(i, j)
    return con, tot


def test_idl_masks_match_block_definition(kernel_inputs):
    for dl in kernel_inputs:
        df = idl_dframe(dl)
        assert (df.con_mask, df.tot_mask) == _idl_masks_by_blocks(dl)


def test_idl_rejects_inputs_the_block_definition_would_repair(omega3):
    """idl reads con and tot straight from its input, which is right only
    for a down-set con and an up-set tot; any other input is rejected."""
    plus, minus, con, tot = omega3.plus, omega3.minus, omega3.con_mask, omega3.tot_mask
    not_down = DLattice(plus, minus, con | 1 << omega3.pid(1, 2), tot)  # (c1,c1) not consistent
    not_up = DLattice(plus, minus, con, tot & ~(1 << omega3.pid(2, 2)))  # (1,c1) total
    for dl in (not_down, not_up):
        assert _idl_masks_by_blocks(dl) != (dl.con_mask, dl.tot_mask)
        with pytest.raises(InvariantViolation, match="idl failed validation"):
            idl_dframe(dl)


def _covering_principal_maps(dl):
    """The four-case maps of the principal pairs (↓u, ↓v), u and v not top,
    whose zero sets cover con: a superset of the pairs that
    ``_primes_bruteforce`` keeps."""
    for u in range(dl.plus.n):
        for v in range(dl.minus.n):
            if u == dl.plus.top or v == dl.minus.top:
                continue
            try:
                yield covered_ideal_map(dl, u, v)
            except CoveringViolation:
                continue


def test_brute_prime_candidates_pass_the_d_ideal_validator():
    """The proof in ``enumerate_prime_d_ideals`` that its candidates are
    d-ideal maps, checked on every Q2 candidate at bound 4 (valid or not)
    and the d-Boolean corpus; the primes equal those of the path that ran
    both validators."""
    dls = _q2_candidates(4) + list(dbool_corpus(4))
    checked = 0
    for dl in dls:
        candidates = list(_covering_principal_maps(dl))
        for g in candidates:
            assert validate_d_ideal_map(dl, g).ok
        checked += len(candidates)
        both = [g.values for g in candidates if is_prime_d_ideal(dl, g)]
        assert [g.values for g in ideals._primes_bruteforce(dl)] == both
    assert (len(dls), checked) == (1676, 5936)


def _four_case_by_membership(dl, u, v):
    """Oracle: the first uncovered consistent pair, else the four-case values,
    read as membership of a in ↓u and of b in ↓v, one bit at a time."""

    def in_plus(a):
        return (dl.plus.down[u] >> a) & 1

    def in_minus(b):
        return (dl.minus.down[v] >> b) & 1

    for p in bits(dl.con_mask):
        a, b = dl.unpid(p)
        if not (in_plus(a) or in_minus(b)):
            return (a, b)
    return tuple(
        (0 if in_plus(a) else BTT) | (0 if in_minus(b) else BFF)
        for a in range(dl.plus.n)
        for b in range(dl.minus.n)
    )


def test_d_ideal_to_map_matches_membership_table(kernel_inputs):
    uncovered = 0
    for dl in kernel_inputs:
        for u in range(dl.plus.n):
            for v in range(dl.minus.n):
                want = _four_case_by_membership(dl, u, v)
                try:
                    got = covered_ideal_map(dl, u, v).values
                except CoveringViolation as exc:
                    got = exc.witness
                    uncovered += 1
                assert got == want
    assert uncovered


def test_idl_guard_survives_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import ideals
        from bistone.dlattice import bool_dlattice
        from bistone.errors import InvariantViolation
        from bistone.report import StructReport

        B = bool_dlattice()
        ideals.validate_dlattice = lambda dl: StructReport.failed("patched")
        try:
            ideals.idl_dframe(B)
        except InvariantViolation:
            print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]
