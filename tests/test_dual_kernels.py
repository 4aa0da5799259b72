"""The dual-structure kernels against the scans they replaced, kept here as
test-only oracles: ``lattice_from_family`` against ``build_lattice`` on the
inclusion matrix, the row-form poset checks against the pairwise ones,
``validate_dboolean`` and the pairing masks against the pairwise dagger loops,
``prime_pair_opens`` against the per-element ``on_plus``/``on_minus`` form,
and ``validate_dlattice_hom`` against the per-pair ``apply`` scan."""

import sys
from itertools import permutations

import pytest
from test_dlattice import dagger_algebras
from test_validate_oracle import _q2_candidates

from bistone import bitop as bt
from bistone import dlattice as dlattice_module
from bistone import duality as du
from bistone import lattice as lattice_module
from bistone.corpus import birkhoff_corpus, boolean_lattice, chain, unlabeled_posets
from bistone.dlattice import (
    DBooleanAlgebra,
    DLatticeHom,
    _dagger_masks,
    bool_dlattice,
    lambda_of_dislat,
    omega_of_lattice,
    validate_dboolean,
    validate_dlattice,
    validate_dlattice_hom,
)
from bistone.errors import NotALattice, NotAPoset, NotBounded
from bistone.ideals import BFF, BTT, enumerate_prime_d_ideals, prime_pair_opens, prime_pairs
from bistone.lattice import (
    FiniteLattice,
    FinitePoset,
    LatticeHom,
    birkhoff,
    bits,
    build_lattice,
    down_sets,
    enumerate_lattice_homs,
    lattice_from_family,
    mask_of,
    set_label,
    validate_lattice_hom,
)
from bistone.report import StructReport

# ---------------------------------------------------------------------------
# lattice_from_family


def lattice_from_family_by_build(n_points, masks, point_labels=None):
    """Oracle: the inclusion matrix of the sorted family through the generic
    ``build_lattice`` (poset checks, bounds, meet/join search, triple
    distributivity scan), with the family kept as the lattice's sets."""
    if point_labels is None:
        point_labels = [str(i) for i in range(n_points)]
    fam = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    labels = [set_label(m, point_labels) for m in fam]
    leq = [[(a & ~b) == 0 for b in fam] for a in fam]
    L = build_lattice(labels, leq)
    return FiniteLattice(L.poset, L.bot, L.top, L.meet, L.join, tuple(fam))


def assert_same_lattice(got, want):
    for name in FinitePoset.__slots__:
        assert getattr(got.poset, name) == getattr(want.poset, name), name
    assert (got.bot, got.top, got.sets) == (want.bot, want.top, want.sets)
    for name in ("meet", "join"):
        g, w = getattr(got, name), getattr(want, name)
        assert g == w and {type(x) for row in g for x in row} == {int}, name
        assert type(g) is tuple and {type(row) for row in g} == {tuple}, name


def corpus_families():
    """(n_points, family, point labels): every topology on at most 4 points,
    the down-sets of the 87 posets with at most 5 elements, the d-clopens of
    their Stone spaces, and the power sets of at most 4 points."""
    out = [(n, top, None) for n in range(1, 5) for top in du.enumerate_topologies(n)]
    for p in unlabeled_posets(5):
        out.append((p.n, down_sets(p), p.labels))
        X = bt.stone_space_from_poset(p)
        out.append((X.n, bt.plus_open_minus_closed(X), X.labels))
        out.append((X.n, bt.minus_open_plus_closed(X), X.labels))
    out += [(k, list(range(1 << k)), [f"a{i}" for i in range(k)]) for k in range(5)]
    return out


def test_lattice_from_family_matches_build_lattice():
    families = corpus_families()
    assert len(families) == 1 + 4 + 29 + 355 + 3 * 87 + 5
    for n_points, fam, labels in families:
        assert_same_lattice(
            lattice_from_family(n_points, fam, labels),
            lattice_from_family_by_build(n_points, fam, labels),
        )


def test_family_lattice_wrappers_match_build_lattice():
    for p in unlabeled_posets(4):
        assert_same_lattice(birkhoff(p), lattice_from_family_by_build(p.n, down_sets(p), p.labels))
    for k in range(5):
        assert_same_lattice(
            boolean_lattice(k), lattice_from_family_by_build(k, range(1 << k), [f"a{i}" for i in range(k)])
        )


@pytest.mark.parametrize(
    "family, op, witness",
    [
        # a lattice under inclusion ({0} ∨ {1} = {0,1,2}), but {0} ∪ {1} is missing
        ([0b000, 0b001, 0b010, 0b111], "union", (1, 2)),
        # {0,1} ∩ {1,2} = {1} is missing
        ([0b000, 0b011, 0b110, 0b111], "intersection", (1, 2)),
        # no empty set: the first pair of distinct members has no intersection
        ([0b001, 0b010, 0b011, 0b101, 0b111], "intersection", (0, 1)),
        # both missing: the intersection is named
        ([0b011, 0b110], "intersection", (0, 1)),
    ],
)
def test_family_not_closed_names_first_missing_pair(family, op, witness):
    with pytest.raises(NotALattice) as exc:
        lattice_from_family(3, family)
    assert exc.value.witness == witness
    assert f"the {op} is not in the family" in str(exc.value)


def test_empty_family_has_no_bottom():
    with pytest.raises(NotBounded, match="empty carrier"):
        lattice_from_family(2, [])


def test_dual_poset_and_row_constructor_match_matrix_form():
    for p in unlabeled_posets(4):
        n = p.n
        by_matrix = FinitePoset(p.labels, [[p.leq(j, i) for j in range(n)] for i in range(n)])
        for name in FinitePoset.__slots__:
            assert getattr(p.dual(), name) == getattr(by_matrix, name)
        rows = FinitePoset.from_rows(p.labels, p.up)
        for name in FinitePoset.__slots__:
            assert getattr(rows, name) == getattr(p, name)


def poset_rows_by_scan(labels, leq):
    """Oracle: the pairwise checks and cover scan of the matrix constructor
    before the row form, as (up, down, cover_up, cover_down, hasse)."""
    n = len(labels)
    up = [mask_of(j for j in range(n) if leq[i][j]) for i in range(n)]
    for i in range(n):
        if not (up[i] >> i) & 1:
            raise NotAPoset(f"leq not reflexive at {labels[i]}", witness=(i,))
    for i in range(n):
        for j in bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise NotAPoset(f"leq not antisymmetric on ({labels[i]}, {labels[j]})", witness=(i, j))
    cover_up = [0] * n
    for i in range(n):
        above = 0
        for j in bits(up[i]):
            if up[j] & ~up[i]:
                k = next(bits(up[j] & ~up[i]))
                raise NotAPoset(
                    f"leq not transitive on ({labels[i]}, {labels[j]}, {labels[k]})", witness=(i, j, k)
                )
            if j != i:
                above |= up[j] & ~(1 << j)
        cover_up[i] = up[i] & ~(1 << i) & ~above
    down = [0] * n
    cover_down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
            if (cover_up[i] >> j) & 1:
                cover_down[j] |= 1 << i
    hasse = tuple((i, j) for i in range(n) for j in bits(cover_up[i]))
    return tuple(up), tuple(down), tuple(cover_up), tuple(cover_down), hasse


def test_poset_checks_match_pairwise_scan():
    """The matrix and row constructors on every relation on 3 points and
    every reflexive one on 4."""
    relations = [[[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)] for code in range(1 << 9)]
    off_diagonal = [(i, j) for i in range(4) for j in range(4) if i != j]
    relations += [
        [[i == j or (code >> off_diagonal.index((i, j))) & 1 for j in range(4)] for i in range(4)]
        for code in range(1 << 12)
    ]
    outcomes = set()
    for leq in relations:
        n = len(leq)
        labels = "abcd"[:n]
        up = [mask_of(j for j in range(n) if leq[i][j]) for i in range(n)]
        try:
            want = poset_rows_by_scan(labels, leq)
        except NotAPoset as exc:
            for build in (lambda: FinitePoset(labels, leq), lambda: FinitePoset.from_rows(labels, up)):
                with pytest.raises(NotAPoset) as got:
                    build()
                assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
            outcomes.add(str(exc).split(" on ")[0].split(" at ")[0])
            continue
        for p in (FinitePoset(labels, leq), FinitePoset.from_rows(labels, up)):
            assert (p.up, p.down, p.cover_up, p.cover_down, p.hasse) == want
        outcomes.add("poset")
    assert outcomes == {"poset", "leq not reflexive", "leq not antisymmetric", "leq not transitive"}


def test_duality_round_trips_build_no_generic_lattice(monkeypatch):
    """The unit and counit round trips on the posets with at most 4
    elements build every lattice from a set family or an order, never
    through the generic ``build_lattice``."""
    items = [(lambda_of_dislat(birkhoff(p)), bt.stone_space_from_poset(p)) for p in unlabeled_posets(4)]
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build_lattice(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "bistone" or name.startswith("bistone."):
            for key, value in list(vars(mod).items()):
                if value is build_lattice:
                    monkeypatch.setattr(mod, key, counting)
    assert lattice_module.build_lattice is counting
    for A, X in items:
        assert du.unit_roundtrip(A).is_iso and du.counit_roundtrip(X).is_iso
    assert calls == 0


# ---------------------------------------------------------------------------
# validate_dboolean and the pairing masks


def validate_dboolean_by_scan(A):
    """Oracle: the pairwise double loops over (a1, a2) and (a, b), each
    failure with the message that names its witness."""
    base = validate_dlattice(A)
    if not base.ok:
        return base
    if sorted(A.dagger) != list(range(A.minus.n)):
        return StructReport.failed(
            "dagger-bijection",
            witness=A.dagger,
            message=f"dagger {A.dagger} is not a bijection onto the {A.minus.n} minus elements",
        )
    for a1 in range(A.plus.n):
        for a2 in range(A.plus.n):
            if A.plus.leq(a1, a2) != A.minus.leq(A.dagger[a2], A.dagger[a1]):
                l1, l2 = A.plus.labels[a1], A.plus.labels[a2]
                if A.plus.leq(a1, a2):
                    why = f"{l1} <= {l2} but not dagger({l2}) <= dagger({l1})"
                else:
                    why = f"dagger({l2}) <= dagger({l1}) but not {l1} <= {l2}"
                return StructReport.failed(
                    "dagger-order-reversing",
                    witness=(l1, l2),
                    message=f"dagger not order reversing on ({l1}, {l2}): {why}",
                )
    for a in range(A.plus.n):
        for b in range(A.minus.n):
            p = A.pid(a, b)
            la, lb, ld = A.plus.labels[a], A.minus.labels[b], A.minus.labels[A.dagger[a]]
            pair = f"({la},{lb})"
            if A.in_con(p) != A.plus.leq(a, A.dagger_inv[b]):
                order = f"{lb} <= dagger({la}) = {ld}"
                return StructReport.failed(
                    "con-from-dagger",
                    witness=(la, lb),
                    message=f"{pair} is consistent but not {order}" if A.in_con(p) else f"{pair} is not consistent but {order}",
                )
            if A.in_tot(p) != A.minus.leq(A.dagger[a], b):
                order = f"dagger({la}) = {ld} <= {lb}"
                return StructReport.failed(
                    "tot-from-dagger",
                    witness=(la, lb),
                    message=f"{pair} is total but not {order}" if A.in_tot(p) else f"{pair} is not total but {order}",
                )
    return StructReport.passed("valid d-Boolean algebra")


def dagger_masks_by_scan(plus, minus, dagger):
    """Oracle: ((con, tot), None) for the masks of an order-reversing
    pairing by the pairwise loops, or (None, (a1, a2)) for the first pair
    it does not reverse, in row-major order."""
    for a1 in range(plus.n):
        for a2 in range(plus.n):
            if plus.leq(a1, a2) != minus.leq(dagger[a2], dagger[a1]):
                return None, (a1, a2)
    inv = [dagger.index(b) for b in range(minus.n)]
    nm = minus.n
    con = tot = 0
    for a in range(plus.n):
        for b in range(nm):
            if plus.leq(a, inv[b]):
                con |= 1 << (a * nm + b)
            if minus.leq(dagger[a], b):
                tot |= 1 << (a * nm + b)
    return (con, tot), None


def reordered_daggers(A):
    """A with its con/tot kept and the dagger composed with every
    permutation of the minus side (n ≤ 5), or with the transpositions of
    †0 (larger n), plus one dagger that is not a bijection."""
    n = A.minus.n
    if n <= 5:
        perms = permutations(range(n))
    else:
        perms = [tuple(k if x == 0 else 0 if x == k else x for x in range(n)) for k in range(n)]
    out = [DBooleanAlgebra(A.plus, A.minus, A.con_mask, A.tot_mask, [s[d] for d in A.dagger]) for s in perms]
    out.append(DBooleanAlgebra(A.plus, A.minus, A.con_mask, A.tot_mask, [0] * n))
    return out


def test_validate_dboolean_matches_pairwise_scan(bundle, monkeypatch):
    """Every report equals the scan's, on algebras that pass the pairing
    clauses (the d-clopen algebras of the default-bundle and duality-corpus
    spaces among them), on algebras that fail one, and on a one-element
    coordinate pair, whose pairing holds but which is degenerate.  Only the
    inputs that fail run ``validate_dlattice``, each once."""
    passed, mutants = dagger_algebras()
    reordered = [B for A in passed for B in reordered_daggers(A)]
    spaces = bundle.spaces + [bt.stone_space_from_poset(p) for p in unlabeled_posets(5)]
    dclops = [bt.dclop_algebra(X) for X in spaces]
    one = build_lattice(["0"], [[True]])
    inputs = passed + mutants + reordered + [bool_dlattice()] + [lambda_of_dislat(L) for L in birkhoff_corpus(4)]
    inputs += dclops + [DBooleanAlgebra(one, one, 0b1, 0b1, (0,))]
    assert len(dclops) == 26 + 87
    fired = {}
    calls = 0

    def counting(dl):
        nonlocal calls
        calls += 1
        return validate_dlattice(dl)

    monkeypatch.setattr(dlattice_module, "validate_dlattice", counting)
    for A in inputs:
        want = validate_dboolean_by_scan(A)
        assert validate_dboolean(A) == want
        fired[want.axiom] = fired.get(want.axiom, 0) + 1
    assert calls == len(inputs) - fired[None]
    assert fired == {
        None: 59 + 26 + 87,
        "degenerate-pair": 1,
        "con-tt-ff": 34,
        "tot-tt-ff": 34,
        "con-scott-closed": 301,
        "tot-upper-set": 301,
        "con-logic-sublattice": 41,
        "tot-logic-sublattice": 41,
        "con-tot": 52,
        "dagger-bijection": 17,
        "dagger-order-reversing": 699,
        "con-from-dagger": 42,
        "tot-from-dagger": 36,
    }


def test_dagger_masks_match_pairwise_scan():
    """On each pair of same-size corpus lattices with 2..5 elements, with
    every bijection as the dagger: where the scan accepts the pairing,
    ``_dagger_masks`` gives its con and tot, and the algebra validates.
    Where it rejects, the algebra fails validation as the scan says; with
    the con and tot of an accepted dagger on the same coordinates,
    ``validate_dboolean`` reports ``dagger-order-reversing`` at the scan's
    pair.  λ(L) reads its con and tot from the identity pairing."""
    lattices = [L for L in birkhoff_corpus(4) if 1 < L.n <= 5]
    accepted = rejected = reported = 0
    for plus in lattices:
        lam = lambda_of_dislat(plus)
        assert (lam.con_mask, lam.tot_mask) == dagger_masks_by_scan(plus, plus.dual(), tuple(range(plus.n)))[0]
        for minus in lattices:
            if minus.n != plus.n:
                continue
            verdicts = [(dagger, *dagger_masks_by_scan(plus, minus, dagger)) for dagger in permutations(range(plus.n))]
            valid_masks = [masks for _, masks, _ in verdicts if masks is not None]
            for dagger, masks, bad in verdicts:
                A = DBooleanAlgebra(plus, minus, *_dagger_masks(minus, dagger), dagger)
                report = validate_dboolean(A)
                assert report == validate_dboolean_by_scan(A)
                if masks is not None:
                    assert (A.con_mask, A.tot_mask) == masks and report.ok
                    accepted += 1
                    continue
                assert not report.ok
                rejected += 1
                for con, tot in valid_masks:
                    report = validate_dboolean(DBooleanAlgebra(plus, minus, con, tot, dagger))
                    assert report.axiom == "dagger-order-reversing"
                    assert report.witness == tuple(plus.labels[a] for a in bad)
                    reported += 1
    assert (accepted, rejected, reported) == (10, 1174, 664)
    one = build_lattice(["0"], [[True]])
    assert validate_dboolean(DBooleanAlgebra(one, one, *_dagger_masks(one, (0,)), (0,))).axiom == "degenerate-pair"


# ---------------------------------------------------------------------------
# prime_pair_opens


def prime_opens_by_calls(dl, primes):
    """Oracle: φ₊ and φ₋ through ``on_plus`` / ``on_minus`` per (element,
    prime)."""
    phi_plus = tuple(
        mask_of(k for k, g in enumerate(primes) if g.on_plus(a) == BTT) for a in range(dl.plus.n)
    )
    phi_minus = tuple(
        mask_of(k for k, g in enumerate(primes) if g.on_minus(b) == BFF) for b in range(dl.minus.n)
    )
    return phi_plus, phi_minus


def test_prime_opens_match_per_element_calls():
    dls = []
    for p in unlabeled_posets(5):
        dls.append(lambda_of_dislat(birkhoff(p)))
        dls.append(bt.dclop_algebra(bt.stone_space_from_poset(p)))
    q2 = [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok]
    assert len(q2) == 135
    for dl in dls + q2:
        primes = enumerate_prime_d_ideals(dl)
        assert prime_pair_opens(dl, prime_pairs(dl)) == prime_opens_by_calls(dl, primes)


# ---------------------------------------------------------------------------
# validate_dlattice_hom


def validate_dlattice_hom_by_scan(hom):
    """Oracle: component lattice homs, then con and tot through ``apply``
    per source pair."""
    src, tgt = hom.source, hom.target
    for name, f, L, M in (
        ("plus", hom.fplus, src.plus, tgt.plus),
        ("minus", hom.fminus, src.minus, tgt.minus),
    ):
        rep = validate_lattice_hom(LatticeHom(L, M, tuple(f)))
        if not rep.ok:
            clause = {"bottom": "ff" if name == "plus" else "tt", "top": "tt" if name == "plus" else "ff"}.get(rep.axiom, rep.axiom)
            return StructReport.failed(
                f"{name}-{rep.axiom}" if rep.axiom in ("meet", "join", "total") else clause,
                witness=rep.witness,
                message=f"{name} component: {rep.message}",
            )
    for p in bits(src.con_mask):
        if not tgt.in_con(hom.apply(p)):
            return StructReport.failed(
                "con",
                witness=src.labels_of(p),
                message=f"image of consistent pair {src.pair_label(p)} not consistent",
            )
    for p in bits(src.tot_mask):
        if not tgt.in_tot(hom.apply(p)):
            return StructReport.failed(
                "tot",
                witness=src.labels_of(p),
                message=f"image of total pair {src.pair_label(p)} not total",
            )
    return StructReport.passed("valid d-lattice homomorphism")


def test_validate_dlattice_hom_matches_apply_scan():
    """Every pair of component lattice homs between small d-lattices: the
    pairs that drop a consistent or a total pair are the mutants, the rest
    are homs; plus the constant maps, which fail a component."""
    dls = [bool_dlattice(), omega_of_lattice(chain(2)), omega_of_lattice(chain(3))]
    dls += [lambda_of_dislat(L) for L in birkhoff_corpus(3) if L.n > 1]
    fired = {}
    for src in dls:
        for tgt in dls:
            plus_maps = [h.mapping for h in enumerate_lattice_homs(src.plus, tgt.plus)]
            minus_maps = [h.mapping for h in enumerate_lattice_homs(src.minus, tgt.minus)]
            plus_maps.append((0,) * src.plus.n)
            for fp in plus_maps:
                for fm in minus_maps:
                    hom = DLatticeHom(src, tgt, fp, fm)
                    want = validate_dlattice_hom_by_scan(hom)
                    assert validate_dlattice_hom(hom) == want
                    fired[want.axiom] = fired.get(want.axiom, 0) + 1
    assert {None, "con", "tot", "tt"} <= set(fired)
