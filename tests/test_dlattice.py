"""d-lattice axioms, the dualizing object, omega/lambda constructions,
d-complements, the coreflection and the DBL presentation."""

from dataclasses import dataclass
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_validate_oracle import _single_bit_mutants

from bistone.corpus import birkhoff_corpus, boolean_lattice, chain, three_chain
from bistone.dlattice import (
    DBooleanAlgebra,
    DLattice,
    DLatticeHom,
    _con_tot_failure,
    _dagger_masks,
    canonical_lambda_iso,
    dB,
    d_complement,
    dlattice_equal,
    enumerate_dlattice_homs,
    find_dlattice_iso,
    lambda_of_dislat,
    logic_formula_row,
    logic_order_lattice,
    omega_of_lattice,
    validate_carrier_hom,
    validate_dboolean,
    validate_dlattice,
    validate_dlattice_hom,
)
from bistone.errors import DegeneratePair, InvariantViolation
from bistone.lattice import FiniteLattice, bits, build_lattice, inverse_permutation, lattice_isos, mask_of
from bistone.suites import all_dlattices


def one(dl):
    """The pair id of (1, 1), the top of the information order."""
    return dl.pid(dl.plus.top, dl.minus.top)


def zero(dl):
    """The pair id of (0, 0), the bottom of the information order."""
    return dl.pid(dl.plus.bot, dl.minus.bot)


def compose(g, f):
    """g ∘ f, for d-lattice homs that meet at one d-lattice."""
    if not (f.target is g.source or dlattice_equal(f.target, g.source)):
        raise InvariantViolation("composed homs do not meet at one d-lattice")
    return DLatticeHom(
        f.source, g.target, tuple(g.fplus[a] for a in f.fplus), tuple(g.fminus[b] for b in f.fminus)
    )


def test_bool_object_validates(B):
    assert validate_dlattice(B).ok
    assert B.con_mask.bit_count() == 3 and B.tot_mask.bit_count() == 3
    assert B.in_con(zero(B)) and B.in_con(B.tt) and B.in_con(B.ff)
    assert B.in_tot(one(B)) and B.in_tot(B.tt) and B.in_tot(B.ff)


def test_mutant_one_in_con_fails_con_tot(B):
    mutant = DLattice(B.plus, B.minus, B.con_mask | (1 << one(B)), B.tot_mask)
    report = validate_dlattice(mutant)
    assert not report.ok and report.axiom == "con-tot"
    # the witness pairs 1 against tt
    assert report.witness["alpha"] == ("tt", "ff")
    assert report.witness["beta"] in (("tt", "0"), ("0", "ff"))


def test_mutant_ff_removed_from_tot(B):
    mutant = DLattice(B.plus, B.minus, B.con_mask, B.tot_mask & ~(1 << B.ff))
    report = validate_dlattice(mutant)
    assert not report.ok and report.axiom == "tot-tt-ff"


def test_mutant_con_not_downset(B):
    mutant = DLattice(B.plus, B.minus, (1 << B.tt) | (1 << B.ff), B.tot_mask)
    report = validate_dlattice(mutant)
    assert not report.ok and report.axiom == "con-scott-closed"


def test_degenerate_guard():
    one = build_lattice(["x"], [[True]])
    two = chain(2)
    dl = DLattice(one, two, 0b11, 0b11)
    report = validate_dlattice(dl)
    assert not report.ok and report.axiom == "degenerate-pair"
    with pytest.raises(DegeneratePair):
        omega_of_lattice(one)


class NotComplementaryPair(ValueError):
    """The designated (tt, ff) pair is not complementary."""


@dataclass(frozen=True)
class CarrierDecomposition:
    """L ≅ [0,tt] × [0,ff]: coordinate lattices plus the two mutually
    inverse coordinate maps."""

    plus: FiniteLattice
    minus: FiniteLattice
    to_pair: tuple        # element of L -> (index in plus, index in minus)
    from_pair: dict       # (index in plus, index in minus) -> element of L


def restriction(L, elems):
    """The lattice on the elements elems of L, ascending, under L's order."""
    return build_lattice([L.labels[a] for a in elems], [[L.leq(a, b) for b in elems] for a in elems])


def decompose(L, tt, ff):
    """Split a lattice along a complementary pair via a ↦ (a ∧ tt, a ∧ ff):
    the carrier of a d-lattice is its coordinate product."""
    if L.join[tt][ff] != L.top or L.meet[tt][ff] != L.bot:
        raise NotComplementaryPair(f"({L.labels[tt]}, {L.labels[ff]}) is not a complementary pair")
    if {tt, ff} == {L.top, L.bot}:
        raise DegeneratePair("{tt,ff} = {1,0} is excluded")
    plus_elems = list(bits(L.down[tt]))
    minus_elems = list(bits(L.down[ff]))
    plus, minus = restriction(L, plus_elems), restriction(L, minus_elems)
    pindex = {a: i for i, a in enumerate(plus_elems)}
    mindex = {b: i for i, b in enumerate(minus_elems)}
    to_pair = tuple((pindex[L.meet[x][tt]], mindex[L.meet[x][ff]]) for x in range(L.n))
    from_pair = {ab: x for x, ab in enumerate(to_pair)}
    if len(from_pair) != L.n or any(
        L.join[plus_elems[to_pair[x][0]]][minus_elems[to_pair[x][1]]] != x for x in range(L.n)
    ):
        raise NotComplementaryPair("coordinate maps are not mutually inverse")
    return CarrierDecomposition(plus, minus, to_pair, from_pair)


def test_decompose_b2():
    L = boolean_lattice(2)
    atoms = [a for a in range(4) if a not in (L.bot, L.top)]
    dec = decompose(L, atoms[0], atoms[1])
    assert dec.plus.n == 2 and dec.minus.n == 2
    # coordinate maps are mutually inverse
    for x in range(L.n):
        assert dec.from_pair[dec.to_pair[x]] == x


def test_decompose_rejects_noncomplementary():
    M = three_chain()
    with pytest.raises(NotComplementaryPair):
        decompose(M, 1, 1)


def test_decompose_rejects_degenerate():
    M = three_chain()
    with pytest.raises(DegeneratePair):
        decompose(M, M.top, M.bot)


def test_decompose_product_chain():
    # 3-chain × 2-chain with tt = (top, bot), ff = (bot, top)
    coords = [(a, b) for a in range(3) for b in range(2)]
    leq = [[a2 >= a1 and b2 >= b1 for (a2, b2) in coords] for (a1, b1) in coords]
    L = build_lattice([f"{a}{b}" for a, b in coords], leq)
    tt = coords.index((2, 0))
    ff = coords.index((0, 1))
    dec = decompose(L, tt, ff)
    assert dec.plus.n == 3 and dec.minus.n == 2
    assert all(dec.plus.leq(i, j) or dec.plus.leq(j, i) for i in range(3) for j in range(3))


def pair_meet(dl, p, q):
    """The meet of two pair ids in the information order: coordinatewise."""
    a1, b1 = dl.unpid(p)
    a2, b2 = dl.unpid(q)
    return dl.pid(dl.plus.meet[a1][a2], dl.minus.meet[b1][b2])


def pair_join(dl, p, q):
    """The join of two pair ids in the information order: coordinatewise."""
    a1, b1 = dl.unpid(p)
    a2, b2 = dl.unpid(q)
    return dl.pid(dl.plus.join[a1][a2], dl.minus.join[b1][b2])


def logic_meet(dl, p, q):
    """Reference: x ⊓ y = (x ∧ ff) ∨ (y ∧ ff) ∨ (x ∧ y), computed in the
    information order."""
    return pair_join(dl, pair_join(dl, pair_meet(dl, p, dl.ff), pair_meet(dl, q, dl.ff)), pair_meet(dl, p, q))


def logic_join(dl, p, q):
    """Reference: x ⊔ y = (x ∧ tt) ∨ (y ∧ tt) ∨ (x ∧ y)."""
    return pair_join(dl, pair_join(dl, pair_meet(dl, p, dl.tt), pair_meet(dl, q, dl.tt)), pair_meet(dl, p, q))


def logic_meet_coordinatewise(dl, p, q):
    a1, b1 = dl.unpid(p)
    a2, b2 = dl.unpid(q)
    return dl.pid(dl.plus.meet[a1][a2], dl.minus.join[b1][b2])


def logic_join_coordinatewise(dl, p, q):
    a1, b1 = dl.unpid(p)
    a2, b2 = dl.unpid(q)
    return dl.pid(dl.plus.join[a1][a2], dl.minus.meet[b1][b2])


def test_logic_formula_row_is_a_coordinate_of_the_pair_formula(omega3, lam3, B):
    for dl in (omega3, lam3, B):
        for reference, bound in ((logic_meet, dl.ff), (logic_join, dl.tt)):
            ea, eb = dl.unpid(bound)
            for p in range(dl.size):
                a1, b1 = dl.unpid(p)
                plus, minus = logic_formula_row(dl.plus, a1, ea), logic_formula_row(dl.minus, b1, eb)
                assert [dl.pid(a, b) for a in plus for b in minus] == [reference(dl, p, q) for q in range(dl.size)]


def test_logic_ops_on_bool_object(B):
    assert logic_meet(B, B.tt, B.ff) == B.ff
    assert logic_join(B, B.tt, B.ff) == B.tt
    assert logic_meet(B, one(B), zero(B)) == B.ff
    assert logic_join(B, one(B), zero(B)) == B.tt
    for p in range(B.size):
        assert logic_meet(B, p, p) == p


def test_logic_formula_matches_coordinates(omega3, lam3, B):
    for dl in (omega3, lam3, B):
        for p in range(dl.size):
            for q in range(dl.size):
                assert logic_meet(dl, p, q) == logic_meet_coordinatewise(dl, p, q)
                assert logic_join(dl, p, q) == logic_join_coordinatewise(dl, p, q)


def test_logic_order_is_bounded_lattice(omega3):
    lat = logic_order_lattice(omega3)
    assert lat.top == omega3.tt and lat.bot == omega3.ff


def logic_leq(dl, p, q):
    """Reference: p ≤ q in the logic order, plus coordinate up and minus
    coordinate down."""
    a1, b1 = dl.unpid(p)
    a2, b2 = dl.unpid(q)
    return dl.plus.leq(a1, a2) and dl.minus.leq(b2, b1)


def test_logic_order_rows_match_the_pairwise_relation(bundle):
    """``logic_order_lattice`` builds its relation from mask rows; the
    lattice of the pairwise ``logic_leq`` matrix has the same order and
    tables, on every bundle d-lattice that the ``logic-order`` row builds
    (carrier of at most 40 pairs)."""
    checked = 0
    for dl in all_dlattices(bundle):
        if dl.size > 40:
            continue
        n = dl.size
        want = build_lattice(
            [dl.pair_label(p) for p in range(n)], [[logic_leq(dl, p, q) for q in range(n)] for p in range(n)]
        )
        got = logic_order_lattice(dl)
        assert (got.labels, got.up, got.bot, got.top) == (want.labels, want.up, want.bot, want.top)
        assert (got.meet, got.join) == (want.meet, want.join)
        checked += 1
    assert checked == 23


def test_omega_three_chain_counts(omega3, chain3):
    # oracle: min/max arithmetic on the chain
    con_pairs = {(a, b) for a in range(3) for b in range(3) if min(a, b) == 0}
    tot_pairs = {(a, b) for a in range(3) for b in range(3) if max(a, b) == 2}
    assert {omega3.unpid(p) for p in bits(omega3.con_mask)} == con_pairs
    assert {omega3.unpid(p) for p in bits(omega3.tot_mask)} == tot_pairs
    assert len(con_pairs) == 5 and len(tot_pairs) == 5
    both = omega3.con_mask & omega3.tot_mask
    assert {omega3.unpid(p) for p in bits(both)} == {(2, 0), (0, 2)}


def test_omega_two_chain_is_bool(B, chain2):
    w2 = omega_of_lattice(chain2)
    iso = find_dlattice_iso(w2, B)
    assert iso is not None


def test_iso_search_rejects_a_larger_con(omega3):
    # the identity maps con into the larger con and tot onto tot, but it
    # is not onto the larger con, so no isomorphism exists
    extra = min(p for p in range(omega3.size) if not omega3.in_con(p))
    grown = DLattice(omega3.plus, omega3.minus, omega3.con_mask | 1 << extra, omega3.tot_mask)
    assert find_dlattice_iso(omega3, omega3) is not None
    assert find_dlattice_iso(omega3, grown) is None
    assert find_dlattice_iso(grown, omega3) is None


def find_dlattice_iso_by_product(d1, d2):
    """Reference: every plus iso times every minus iso, in ``lattice_isos``
    order, plus isos outer; the first whose images pass
    ``_con_tot_failure``."""
    if (d1.con_mask.bit_count(), d1.tot_mask.bit_count()) != (d2.con_mask.bit_count(), d2.tot_mask.bit_count()):
        return None
    for fp, fm in product(lattice_isos(d1.plus, d2.plus), lattice_isos(d1.minus, d2.minus)):
        hom = DLatticeHom(d1, d2, fp.mapping, fm.mapping)
        if _con_tot_failure(hom) is None:
            return hom
    return None


def test_iso_search_matches_the_product_scan(bundle):
    """The image-mask search returns the product scan's first iso, or None,
    on every ordered pair of bundle d-lattices."""
    dls = all_dlattices(bundle)
    found = 0
    for d1 in dls:
        for d2 in dls:
            want, got = find_dlattice_iso_by_product(d1, d2), find_dlattice_iso(d1, d2)
            if want is None:
                assert got is None
                continue
            assert (got.source, got.target, got.fplus, got.fminus) == (d1, d2, want.fplus, want.fminus)
            found += 1
    assert found == 69


def test_d_complement_examples(B, omega3):
    assert d_complement(B, B.plus.top, "+") == B.minus.bot  # tt† = 0, not ff
    assert d_complement(B, B.minus.top, "-") == B.plus.bot
    assert d_complement(omega3, 1, "+") is None  # middle of the chain
    # bottom is two-sided: ff on the plus side, tt on the minus side
    assert d_complement(omega3, 0, "+") == omega3.minus.top
    assert d_complement(omega3, 0, "-") == omega3.plus.top


def test_d_complement_rejects_a_bad_side_and_a_second_partner(B):
    with pytest.raises(ValueError, match="^side must be '\\+' or '-'$"):
        d_complement(B, 0, "x")
    full = (1 << B.size) - 1
    everything = DLattice(B.plus, B.minus, full, full)
    for side in ("+", "-"):
        with pytest.raises(InvariantViolation, match="^d-complement not unique$"):
            d_complement(everything, 0, side)


def test_d_complement_uniqueness(omega3, lam3):
    for dl in (omega3, lam3):
        both = dl.con_mask & dl.tot_mask
        for a in range(dl.plus.n):
            partners = [b for b in range(dl.minus.n) if (both >> dl.pid(a, b)) & 1]
            assert len(partners) <= 1


def test_con_tot_antichain(omega3, lam3, B):
    for dl in (omega3, lam3, B):
        pairs = [dl.unpid(p) for p in bits(dl.con_mask & dl.tot_mask)]
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                if (a1, b1) != (a2, b2):
                    assert not (dl.plus.leq(a1, a2) and dl.minus.leq(b1, b2))


def test_dB_of_bool_is_bool(B):
    cor = dB(B)
    assert dlattice_equal(cor.algebra, B)


def test_dB_of_omega3(B, omega3):
    cor = dB(omega3)
    assert cor.embed_plus == (0, 2) and cor.embed_minus == (0, 2)
    assert find_dlattice_iso(cor.algebra, B) is not None


def test_dB_fixes_dboolean(lam3):
    assert dlattice_equal(dB(lam3).algebra, lam3)


def test_dB_idempotent(omega3):
    once = dB(omega3).algebra
    assert dlattice_equal(dB(once).algebra, once)


def test_lambda_two_chain_is_bool(B, chain2):
    assert find_dlattice_iso(lambda_of_dislat(chain2), B) is not None


def test_lambda_b2_counts(b2):
    lam = lambda_of_dislat(b2)
    # oracle: order pairs of the 4-element Boolean lattice
    order_pairs = sum(b2.leq(a, bb) for a in range(4) for bb in range(4))
    assert order_pairs == 9
    assert lam.con_mask.bit_count() == 9
    assert lam.size == 16
    assert validate_dboolean(lam).ok


def test_lambda_rejects_trivial():
    with pytest.raises(DegeneratePair):
        lambda_of_dislat(build_lattice(["x"], [[True]]))


def test_dbl_roundtrip(B, lam3):
    """con and tot are read back from the order-reversing pairing."""
    for A in (B, lam3):
        assert _dagger_masks(A.minus, A.dagger) == (A.con_mask, A.tot_mask)
    assert B.plus.n == 2 and B.minus.n == 2 and B.dagger == (1, 0)


def test_dboolean_rejects_monotone_dagger(chain3):
    """With the con and tot of the reversal (2, 1, 0) on (chain3, chain3),
    the identity, which is monotone, and a map that is no bijection are
    each rejected by their pairing clause."""
    con, tot = _dagger_masks(chain3, (2, 1, 0))
    assert validate_dboolean(DBooleanAlgebra(chain3, chain3, con, tot, (2, 1, 0))).ok
    monotone = validate_dboolean(DBooleanAlgebra(chain3, chain3, con, tot, (0, 1, 2)))
    assert (monotone.axiom, monotone.witness) == ("dagger-order-reversing", ("0", "c1"))
    assert validate_dboolean(DBooleanAlgebra(chain3, chain3, con, tot, (2, 2, 0))).axiom == "dagger-bijection"


def test_dboolean_con_tot_formulas(lam3):
    for a in range(lam3.plus.n):
        for b in range(lam3.minus.n):
            assert lam3.in_con(lam3.pid(a, b)) == lam3.plus.leq(a, lam3.dagger_inv[b])
            assert lam3.in_tot(lam3.pid(a, b)) == lam3.minus.leq(lam3.dagger[a], b)


def dagger_algebras():
    """On every pair of corpus lattices with at most 6 elements, every
    bijection as the dagger with con/tot from the dagger formulas: the 17
    that pass ``validate_dboolean``, and their 876 single-bit con/tot
    mutants."""
    lattices = [L for L in birkhoff_corpus(4) if L.n <= 6]
    passed = []
    for plus in lattices:
        for minus in lattices:
            if minus.n != plus.n:
                continue
            shell = DLattice(plus, minus, 0, 0)
            pairs = [(a, b) for a in range(plus.n) for b in range(minus.n)]
            for dagger in permutations(range(plus.n)):
                inv = inverse_permutation(dagger)
                con = mask_of(shell.pid(a, b) for a, b in pairs if plus.leq(a, inv[b]))
                tot = mask_of(shell.pid(a, b) for a, b in pairs if minus.leq(dagger[a], b))
                A = DBooleanAlgebra(plus, minus, con, tot, dagger)
                if validate_dboolean(A).ok:
                    passed.append(A)
    mutants = [
        DBooleanAlgebra(A.plus, A.minus, m.con_mask, m.tot_mask, A.dagger)
        for A in passed
        for m in _single_bit_mutants(A)
    ]
    return passed, mutants


def test_dboolean_clauses_imply_the_dagger_is_the_d_complement():
    """``validate_dboolean`` has no d-complemented clause: its other clauses
    imply it.  Wherever the validator passes on ``dagger_algebras``, the
    unique partner of a in con ∩ tot is †a, and that of b is †⁻¹b."""
    passed, mutants = dagger_algebras()
    assert (len(passed), len(mutants)) == (17, 876)
    for A in passed + [m for m in mutants if validate_dboolean(m).ok]:
        assert [d_complement(A, a, "+") for a in range(A.plus.n)] == list(A.dagger)
        assert [d_complement(A, b, "-") for b in range(A.minus.n)] == list(A.dagger_inv)


def test_validate_hom_identity(B):
    assert validate_dlattice_hom(DLatticeHom(B, B, (0, 1), (0, 1))).ok


def test_validate_carrier_hom_swap_fails(B):
    # carrier map swapping tt and ff is not a hom: tt not preserved
    swap = list(range(B.size))
    swap[B.tt], swap[B.ff] = B.ff, B.tt
    report = validate_carrier_hom(B, B, swap)
    assert not report.ok and report.axiom == "tt"


def test_hom_dropping_con_fails(lam3, omega3):
    # component-wise lattice homs that drop the consistent diagonal pair
    # (m,m) of the doubled chain out of con: the witness must name it
    bad = DLatticeHom(lam3, omega3, (0, 1, 2), (2, 1, 0))
    report = validate_dlattice_hom(bad)
    assert not report.ok and report.axiom == "con"
    assert report.witness == ("c1", "c1")


def test_homs_lambda3_to_omega3_collapse_middle(lam3, omega3):
    # any valid hom must send the self-paired middle into con ∩ tot of the
    # target, so the middle collapses to an endpoint
    for hom in enumerate_dlattice_homs(lam3, omega3):
        assert hom.fplus[1] in (0, 2)


def test_enumerate_homs_bool_to_omega3(B, omega3):
    homs = enumerate_dlattice_homs(B, omega3)
    assert len(homs) == 1
    assert homs[0].fplus == (0, 2) and homs[0].fminus == (0, 2)


class FactorizationFailure(AssertionError):
    """A hom out of a d-Boolean algebra does not factor through dB."""


def coreflection_check(dl, M, f):
    """Factor a hom M → dl (M d-Boolean) uniquely through dB(dl) → dl.

    The inclusion is injective, so the factorization is unique whenever it
    exists; existence can only fail on broken input, surfaced as
    FactorizationFailure.
    """
    cor = dB(dl)
    maps = []
    for images, embed, L in ((f.fplus, cor.embed_plus, dl.plus), (f.fminus, cor.embed_minus, dl.minus)):
        index = {a: i for i, a in enumerate(embed)}
        for a in images:
            if a not in index:
                raise FactorizationFailure(f"image {L.labels[a]} is not d-complemented")
        maps.append(tuple(index[a] for a in images))
    factored = DLatticeHom(M, cor.algebra, *maps)
    rep = validate_dlattice_hom(factored)
    if not rep.ok:
        raise FactorizationFailure(f"factorization not a hom: {rep.message}")
    inclusion = DLatticeHom(cor.algebra, dl, cor.embed_plus, cor.embed_minus)
    recomposed = compose(inclusion, factored)
    if recomposed.fplus != tuple(f.fplus) or recomposed.fminus != tuple(f.fminus):
        raise FactorizationFailure("inclusion ∘ factorization differs from f")
    return factored


def test_coreflection_factorization(B, omega3):
    f = enumerate_dlattice_homs(B, omega3)[0]
    factored = coreflection_check(omega3, B, f)
    cor = dB(omega3)
    assert validate_dlattice_hom(factored).ok
    assert factored.target is cor.algebra or dlattice_equal(factored.target, cor.algebra)


def test_coreflection_identity_cases(B):
    ident = DLatticeHom(B, B, (0, 1), (0, 1))
    factored = coreflection_check(B, B, ident)
    assert factored.fplus == (0, 1) and factored.fminus == (0, 1)


def test_coreflection_inclusion_of_dB(omega3):
    cor = dB(omega3)
    inclusion = DLatticeHom(cor.algebra, omega3, cor.embed_plus, cor.embed_minus)
    assert validate_dlattice_hom(inclusion).ok
    factored = coreflection_check(omega3, cor.algebra, inclusion)
    assert factored.fplus == tuple(range(cor.algebra.plus.n))


def test_coreflection_failure_surfaces(omega3, lam3):
    # no valid hom out of a d-Boolean algebra can hit a non-d-complemented
    # element, so the guard only fires on broken input; it must fire, not
    # silently project
    bad = DLatticeHom(lam3, omega3, (0, 1, 2), (2, 1, 0))  # image hits the middle
    with pytest.raises(FactorizationFailure):
        coreflection_check(omega3, lam3, bad)


def test_canonical_lambda_iso(lam3, b2):
    for A in (lam3, lambda_of_dislat(b2)):
        fwd, back = canonical_lambda_iso(A)
        assert validate_dlattice_hom(fwd).ok and validate_dlattice_hom(back).ok
        comp = compose(back, fwd)
        assert comp.fplus == tuple(range(A.plus.n))
        assert comp.fminus == tuple(range(A.minus.n))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_logic_ops_agree_on_lambda_b2(p, q):
    lam = lambda_of_dislat(boolean_lattice(2))
    assert logic_meet(lam, p, q) == logic_meet_coordinatewise(lam, p, q)
    assert logic_join(lam, p, q) == logic_join_coordinatewise(lam, p, q)
