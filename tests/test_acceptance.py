"""Acceptance criteria, one test per criterion, each printing a PASS line.

The corpus is exact and deterministic: all 87 nonempty unlabeled posets with
at most five elements (1+2+5+16+63 per size), their down-set lattices, the
doubled d-Boolean algebras on those, and the up-set/down-set bitopological
spaces of the posets.
"""

import time

import pytest
from test_dlattice import compose, one
from test_topology_oracles import connected_subsets_are_singletons_by_scan

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import boolean_lattice, three_chain, unlabeled_posets, unlabeled_posets_of_size
from bistone.dlattice import (
    DLattice,
    bool_dlattice,
    dB,
    find_dboolean_iso,
    lambda_of_dislat,
    omega_of_lattice,
    validate_dlattice,
)
from bistone.ideals import (
    _primes_structural,
    enumerate_prime_d_ideals,
    idl_dframe,
    is_zero_dimensional_dframe,
)
from bistone.lattice import birkhoff, join_irreducibles, prime_generators
from bistone.suites import CorpusBundle, run_suite, tot_is_upper_set


def _report(number, label, started):
    print(f"ACCEPTANCE {number} PASS {label} ({time.monotonic() - started:.2f}s)")


@pytest.fixture(scope="module")
def poset_corpus():
    posets = unlabeled_posets(5)
    assert len(unlabeled_posets_of_size(5)) == 63
    assert len(posets) == 87
    return posets


@pytest.fixture(scope="module")
def algebra_corpus(poset_corpus):
    return [(p, lambda_of_dislat(birkhoff(p))) for p in poset_corpus]


@pytest.fixture(scope="module")
def space_corpus(poset_corpus):
    return [(p, bt.stone_space_from_poset(p)) for p in poset_corpus]


def test_criterion_1_axiom_fidelity():
    started = time.monotonic()
    B = bool_dlattice()
    assert validate_dlattice(B).ok
    mutant_con = DLattice(B.plus, B.minus, B.con_mask | (1 << one(B)), B.tot_mask)
    report = validate_dlattice(mutant_con)
    assert not report.ok and report.axiom == "con-tot"
    mutant_tot = DLattice(B.plus, B.minus, B.con_mask, B.tot_mask & ~(1 << B.ff))
    report = validate_dlattice(mutant_tot)
    assert not report.ok and report.axiom == "tot-tt-ff"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "dualizing object validates; both mutants fail by name", started)


def test_criterion_2_unit_roundtrip(algebra_corpus):
    started = time.monotonic()
    for poset, A in algebra_corpus:
        witness = du.unit_roundtrip(A)
        assert witness.is_iso, f"unit failed on a {poset.n}-poset: {witness.detail}"
        comp = compose(witness.backward, witness.forward)
        assert comp.fplus == tuple(range(A.plus.n))
        assert comp.fminus == tuple(range(A.minus.n))
        comp = compose(witness.forward, witness.backward)
        assert comp.fplus == tuple(range(len(comp.fplus)))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, f"unit round-trip witnessed on all {len(algebra_corpus)} algebras", started)


def test_criterion_3_counit_roundtrip(space_corpus):
    started = time.monotonic()
    for poset, X in space_corpus:
        witness = du.counit_roundtrip(X)
        assert witness.is_iso, f"counit failed on a {poset.n}-poset space"
        mapping, inverse = witness.forward, witness.backward
        assert all(inverse[mapping[x]] == x for x in range(X.n))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, f"counit round-trip witnessed on all {len(space_corpus)} Stone spaces", started)


def test_criterion_4_prime_ideal_bijection(algebra_corpus):
    started = time.monotonic()
    for poset, A in algebra_corpus:
        structural = _primes_structural(A)
        brute = enumerate_prime_d_ideals(A)
        assert sorted(g.values for g in structural) == sorted(g.values for g in brute)
        n_primes = len(prime_generators(A.plus))
        assert len(structural) == n_primes == len(join_irreducibles(A.plus)) == poset.n
    _report(4, "prime d-ideals = plus primes = join-irreducibles = |poset|, both paths", started)


def test_criterion_5_stone_characterizations(space_corpus):
    """The ``stone-characterizations`` row of the bitop suite, on every
    labeled space of at most 3 points (858) and every corpus space."""
    started = time.monotonic()
    rows = run_suite("bitop", CorpusBundle(spaces=[s for _, s in space_corpus]))
    (row,) = [row for row in rows if row["check"] == "stone-characterizations"]
    checked = 858 + len(space_corpus)
    assert row == {
        "check": "stone-characterizations",
        "ok": True,
        "detail": f"both Stone characterizations agree on {checked} spaces",
    }
    _report(5, row["detail"], started)


def test_criterion_6_equivalence_theorems(algebra_corpus, poset_corpus):
    """The finite collapse (see ``ideals.idl_dframe``): ε and κ are the
    identity on indices, so both composites are identities."""
    started = time.monotonic()

    def identity_embeddings(df):
        cor = dB(df)
        return (cor.embed_plus, cor.embed_minus) == (tuple(range(df.plus.n)), tuple(range(df.minus.n)))

    for _, A in algebra_corpus:
        df = idl_dframe(A)
        assert tot_is_upper_set(df) and is_zero_dimensional_dframe(df)
        assert find_dboolean_iso(A, dB(df).algebra) is not None
        assert identity_embeddings(df)
    frames = [bool_dlattice(), lambda_of_dislat(three_chain())]
    frames += [bt.dO(bt.stone_space_from_poset(p)) for p in unlabeled_posets(4)]
    checked = 0
    for df in frames:
        if not is_zero_dimensional_dframe(df):
            continue
        assert tot_is_upper_set(df) and identity_embeddings(df)
        back = idl_dframe(dB(df).algebra)
        assert (back.con_mask, back.tot_mask) == (df.con_mask, df.tot_mask)
        checked += 1
    _report(6, f"dB∘idl ≅ id on {len(algebra_corpus)} algebras; idl∘dB ≅ id on {checked} frames", started)


def test_criterion_7_dspec_is_dpt_idl():
    started = time.monotonic()
    corpus = [bool_dlattice(), omega_of_lattice(three_chain()), omega_of_lattice(boolean_lattice(2))]
    corpus += [lambda_of_dislat(birkhoff(p)) for p in unlabeled_posets(4)]
    corpus += [bt.dO(bt.stone_space_from_poset(p)) for p in unlabeled_posets(3)]
    corpus.append(bt.dO(bt.BiTopSpace(["p", "q"], [0b00, 0b11], [0b00, 0b11])))
    corpus.append(bt.dO(bt.omega_space(["p", "q"], [0b00, 0b10, 0b11])))
    for dl in corpus:
        assert du.dspec_equals_dpt_idl(dl)
    _report(7, f"dSpec = dpt∘idl on {len(corpus)} corpus d-lattices", started)


def test_criterion_8_spatiality(algebra_corpus):
    started = time.monotonic()
    for _, A in algebra_corpus:
        ok, detail = du.spatiality_check(A)
        assert ok, detail
    _report(8, f"spatiality clauses (i)-(iii) on {len(algebra_corpus)} algebras", started)


def test_criterion_9_extremal_disconnectedness(space_corpus):
    started = time.monotonic()
    checked = 0
    extra = [
        bt.BiTopSpace(["p", "q"], [0b00, 0b11], [0b00, 0b11]),
        bt.BiTopSpace(["x"], [0b0, 0b1], [0b0, 0b1]),
        bt.omega_space(["p", "q"], [0b00, 0b01, 0b10, 0b11]),
    ]
    for s in [s for _, s in space_corpus] + extra:
        if not bt.is_zero_dimensional(s):
            continue
        assert bt.is_extremally_disconnected(s)
        assert du.complete_extremally_disconnected_check(s)
        checked += 1
    _report(9, f"extremal disconnectedness and completeness on {checked} spaces", started)


def test_criterion_10_classical_compatibility():
    started = time.monotonic()
    for k in (1, 2, 3):
        assert du.classical_square_check(boolean_lattice(k))
    _report(10, "omega squares commute on Boolean lattices 2, 4, 8", started)


def test_criterion_11_conjecture_searches():
    started = time.monotonic()
    q1 = du.conjecture_search("Q1", 3)
    assert q1.outcome in ("EXHAUSTED_NO_COUNTEREXAMPLE", "COUNTEREXAMPLE")
    assert "connectedness formalization" in q1.notes
    if q1.outcome == "COUNTEREXAMPLE":
        payload = q1.counterexample
        s = bt.BiTopSpace(
            payload["points"],
            [sum(1 << i for i in u) for u in payload["tau_plus"]],
            [sum(1 << i for i in v) for v in payload["tau_minus"]],
        )
        assert bt.is_T0(s) and bt.is_compact(s)
        assert connected_subsets_are_singletons_by_scan(s)
        assert not bt.is_stone(s)

    q2 = du.conjecture_search("Q2", 4)
    assert q2.outcome in ("EXHAUSTED_NO_COUNTEREXAMPLE", "COUNTEREXAMPLE")
    if q2.outcome == "COUNTEREXAMPLE":
        payload = q2.counterexample
        from bistone.corpus import distributive_lattices

        rebuilt = None
        for plus in distributive_lattices(4):
            for minus in distributive_lattices(4):
                if plus.n != payload["plus_size"] or minus.n != payload["minus_size"]:
                    continue
                shell = DLattice(plus, minus, 0, 0)
                con = sum(1 << shell.pid(a, b) for a, b in payload["con"])
                tot = sum(1 << shell.pid(a, b) for a, b in payload["tot"])
                cand = DLattice(plus, minus, con, tot)
                if validate_dlattice(cand).ok and not du.spatiality_check(cand)[0]:
                    rebuilt = cand
        assert rebuilt is not None
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report(11, f"searches Q1={q1.outcome}, Q2={q2.outcome} (re-verified)", started)
