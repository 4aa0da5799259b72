"""Spectra, the two round trips, spatiality, the lattice equivalence,
classical compatibility and the conjecture searches."""

import textwrap

import pytest
from test_dlattice import compose
from test_topology_oracles import connected_subsets_are_singletons_by_scan, find_homeomorphism

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import boolean_lattice, three_chain, unlabeled_posets
from bistone.dlattice import (
    enumerate_dlattice_homs,
    find_dboolean_iso,
    lambda_of_dislat,
)
from bistone.errors import BoundsTooLarge, NotStone, NotZeroDimensional
from bistone.lattice import FiniteLattice, FinitePoset, birkhoff, enumerate_lattice_homs


@pytest.fixture(scope="module")
def x2(poset2):
    return bt.stone_space_from_poset(poset2)


def test_dspec_of_bool_is_point(B):
    s = du.dspec(B)
    assert s.n == 1 and s.tau_plus == (0b0, 0b1)


def test_dspec_lambda3_is_x2(lam3, x2):
    s = du.dspec(lam3)
    assert s.n == 2 and bt.is_stone(s)
    assert find_homeomorphism(s, x2) is not None


def test_dspec_lambda_b2_discrete(b2):
    s = du.dspec(lambda_of_dislat(b2))
    assert s.n == 2
    assert len(s.tau_plus) == 4 and len(s.tau_minus) == 4


def test_dspec_equals_dpt_idl(B, lam3, omega3):
    for dl in (B, lam3, omega3):
        assert du.dspec_equals_dpt_idl(dl)


def test_unit_roundtrip_examples(B, lam3, antichain2, x2):
    assert du.unit_roundtrip(B).is_iso
    assert du.unit_roundtrip(lambda_of_dislat(birkhoff(antichain2))).is_iso
    assert du.unit_roundtrip(bt.dclop_algebra(x2)).is_iso
    witness = du.unit_roundtrip(lam3)
    forward, backward = witness.forward, witness.backward
    comp = compose(backward, forward)
    assert comp.fplus == tuple(range(lam3.plus.n))
    assert comp.fminus == tuple(range(lam3.minus.n))


def test_counit_roundtrip_examples(x2):
    point = bt.space(["x"], [0b0, 0b1], [0b0, 0b1])
    assert du.counit_roundtrip(point).is_iso
    w = du.counit_roundtrip(x2)
    assert w.is_iso
    # the witness is an honest bijection pair
    assert sorted(w.forward) == [0, 1] and sorted(w.backward) == [0, 1]


def test_counit_requires_stone():
    indiscrete2 = bt.space(["p", "q"], [0b00, 0b11], [0b00, 0b11])
    with pytest.raises(NotStone):
        du.counit_roundtrip(indiscrete2)


def test_spatiality_examples(B, lam3):
    assert du.spatiality_check(B) == (True, "spatial")
    assert du.spatiality_check(lam3)[0]


def test_spatiality_records_outcome_on_general_dlattice(omega3):
    ok, detail = du.spatiality_check(omega3)
    assert isinstance(ok, bool) and isinstance(detail, str)


def test_lambda_equivalence_hom_counts(chain3, chain2):
    report = du.lambda_equivalence_check([chain2, chain3])
    assert report["ok"]
    by_sizes = {(r["M"], r["N"]): r for r in report["hom_pairs"]}
    # oracle: bound-preserving self-maps of a 3-chain (middle anywhere)
    assert by_sizes[(3, 3)]["lattice_homs"] == 3
    assert by_sizes[(2, 2)]["lattice_homs"] == 1  # hom(B, B) has one element


def test_bool_endo_homs(B):
    assert len(enumerate_dlattice_homs(B, B)) == 1


def test_dclop_x2_iso_lambda3(lam3, x2):
    assert find_dboolean_iso(bt.dclop_algebra(x2), lam3) is not None


def test_phi_plus_embedding(lam3):
    spec = du.spectrum(lam3)
    for a1 in range(lam3.plus.n):
        for a2 in range(lam3.plus.n):
            subset = spec.phi_plus[a1] & ~spec.phi_plus[a2] == 0
            assert subset == lam3.plus.leq(a1, a2)


def test_classical_squares():
    for k in (1, 2, 3):
        assert du.classical_square_check(boolean_lattice(k))


def test_classical_square_precondition_survives_python_O(run_python):
    script = textwrap.dedent(
        """
        import sys
        from bistone import duality as du
        from bistone.corpus import three_chain

        try:
            du.classical_square_check(three_chain())
        except ValueError:
            print("raised", sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]


def test_classical_spec_discrete():
    from bistone.lattice import classical_spec

    B3 = boolean_lattice(3)
    primes, gens = classical_spec(B3)
    assert len(primes) == 3
    topology = du.generate_topology(3, gens)
    assert len(topology) == 8  # discrete on three points


def test_complete_extremally_disconnected(x2, posets4):
    assert du.complete_extremally_disconnected_check(x2)
    point = bt.space(["x"], [0b0, 0b1], [0b0, 0b1])
    assert du.complete_extremally_disconnected_check(point)
    for p in posets4[:8]:
        s = bt.stone_space_from_poset(p)
        assert bt.is_extremally_disconnected(s)
        assert du.complete_extremally_disconnected_check(s)


def test_complete_check_requires_zero_dimensional():
    sierp2 = bt.omega_space(["p", "q"], [0b00, 0b10, 0b11])
    with pytest.raises(NotZeroDimensional):
        du.complete_extremally_disconnected_check(sierp2)


def test_is_complete_lattice_literal():
    assert du.is_complete_lattice(boolean_lattice(2))
    assert du.is_complete_lattice(three_chain())


def _literal_complete(L):
    """Oracle: the per-subset scan, listing the upper bounds of every subset
    and asking for one below all of them (order rows only)."""
    for mask in range(1 << L.n):
        ubs = [u for u in range(L.n) if mask & ~L.down[u] == 0]
        if not any(all(L.leq(least, u) for u in ubs) for least in ubs):
            return False
    return True


def _order_shell(n, below):
    """A FiniteLattice wrapper around an arbitrary poset, without tables."""
    leq = [[i == j or (i, j) in below for j in range(n)] for i in range(n)]
    return FiniteLattice(FinitePoset([f"e{i}" for i in range(n)], leq), 0, n - 1, None, None)


def test_is_complete_lattice_matches_literal_scan():
    checked = 0
    for p in unlabeled_posets(5):
        A = bt.dclop_algebra(bt.stone_space_from_poset(p))
        for L in (A.plus, A.minus):
            if L.n <= 12:
                assert du.is_complete_lattice(L) and _literal_complete(L)
                checked += 1
    assert checked == 128


def test_is_complete_lattice_matches_literal_scan_on_posets():
    verdicts = []
    for p in unlabeled_posets(5):
        shell = FiniteLattice(p, 0, p.n - 1, None, None)
        verdicts.append(du.is_complete_lattice(shell))
        assert verdicts[-1] == _literal_complete(shell)
    assert True in verdicts and False in verdicts


def test_is_complete_lattice_rejects_two_maximal_elements():
    # a bottom below 16 atoms: past the old 2**14 subset cap
    shell = _order_shell(17, {(0, a) for a in range(1, 17)})
    assert not du.is_complete_lattice(shell)


def test_is_complete_lattice_rejects_pair_without_least_upper_bound():
    # 0 < a, b < c, d < 1 with c and d incomparable: {a, b} has no join
    below = {(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)}
    below |= {(0, 3), (0, 4), (0, 5), (1, 5), (2, 5)}
    shell = _order_shell(6, below)
    assert not du.is_complete_lattice(shell)
    assert not _literal_complete(shell)


def test_frame_space_duality_on_dO(x2):
    from bistone.dlattice import find_dlattice_iso
    from bistone.ideals import is_zero_dimensional_dframe

    df = bt.dO(x2)
    assert is_zero_dimensional_dframe(df)
    assert find_dlattice_iso(bt.dO(du.dspec(df)), df) is not None


def enumerate_topologies_raw(n):
    """Oracle for ``enumerate_topologies``: every family of subsets of n
    points (n ≤ 3) that holds ∅ and the whole set and is closed under ∪ and
    ∩, in the same sorted form."""
    assert n <= 3
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    out = set()
    for code in range(1 << len(middles)):
        fam = {0, full} | {m for k, m in enumerate(middles) if (code >> k) & 1}
        if all(u | v in fam and u & v in fam for u in fam for v in fam):
            out.add(tuple(sorted(fam, key=lambda m: (m.bit_count(), m))))
    return sorted(out)


def test_topology_enumeration_counts():
    assert len(du.enumerate_topologies(1)) == 1
    assert len(du.enumerate_topologies(2)) == 4
    assert len(du.enumerate_topologies(3)) == 29
    assert du.enumerate_topologies(2) == enumerate_topologies_raw(2)
    assert du.enumerate_topologies(3) == enumerate_topologies_raw(3)


def test_conjecture_search_trivial_bounds():
    assert du.conjecture_search("Q1", 0).outcome == "EXHAUSTED_NO_COUNTEREXAMPLE"
    assert du.conjecture_search("Q2", 0).outcome == "EXHAUSTED_NO_COUNTEREXAMPLE"


def test_conjecture_search_bounds_guard():
    with pytest.raises(BoundsTooLarge):
        du.conjecture_search("Q1", 9)
    with pytest.raises(BoundsTooLarge):
        du.conjecture_search("Q2", 9)
    with pytest.raises(ValueError):
        du.conjecture_search("Q7", 1)


def test_search_reverify_guard_survives_python_O(run_python):
    """With each violation function patched so that the first examined
    structure is a hit and its fresh rebuild is not, both searches raise
    ``InvariantViolation`` under ``python -O``."""
    script = textwrap.dedent(
        """
        import sys
        from bistone import duality as du
        from bistone.errors import InvariantViolation

        for name, conjecture, bound in (("_q1_counterexample", "Q1", 2), ("_q2_violation", "Q2", 4)):
            calls = []

            def first_call_only(structure):
                calls.append(structure)
                return "hit" if len(calls) == 1 else None

            setattr(du, name, first_call_only)
            try:
                du.conjecture_search(conjecture, bound)
            except InvariantViolation as exc:
                print(conjecture, len(calls), calls[0] is not calls[1], exc, sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "Q1 2 True Q1 counterexample failed re-verification 1",
        "Q2 2 True Q2 counterexample failed re-verification 1",
    ]


def test_q1_report_is_reverified():
    report = du.conjecture_search("Q1", 3)
    assert report.outcome in ("EXHAUSTED_NO_COUNTEREXAMPLE", "COUNTEREXAMPLE")
    assert "connectedness formalization" in report.notes
    if report.outcome == "COUNTEREXAMPLE":
        payload = report.counterexample
        s = bt.space(
            payload["points"],
            [sum(1 << i for i in u) for u in payload["tau_plus"]],
            [sum(1 << i for i in v) for v in payload["tau_minus"]],
        )
        # independent re-verification, connectedness by the literal subset scan
        assert bt.is_T0(s)
        assert bt.is_compact(s)
        assert connected_subsets_are_singletons_by_scan(s)
        assert not bt.is_stone(s)


def test_q1_census_to_three_points():
    """The whole Q1 stream to 3 points, one space per class: 1, 10 and 166
    classes with 0, 2 and 32 counterexamples per size, the same with the
    literal subset scan for connectedness."""
    classes, hits, scan_hits = [0] * 3, [0] * 3, [0] * 3
    for spc, _ in du._q1_spaces(3):
        classes[spc.n - 1] += 1
        hits[spc.n - 1] += du._q1_counterexample(spc)
        scan_hits[spc.n - 1] += bt.is_T0(spc) and connected_subsets_are_singletons_by_scan(spc) and not bt.is_stone(spc)
    assert classes == [1, 10, 166]
    assert hits == scan_hits == [0, 2, 32]
    assert (sum(classes), sum(hits)) == (177, 34)


def test_q2_report_is_reverified():
    report = du.conjecture_search("Q2", 4)
    assert report.outcome in ("EXHAUSTED_NO_COUNTEREXAMPLE", "COUNTEREXAMPLE")
    if report.outcome == "COUNTEREXAMPLE":
        payload = report.counterexample
        # rebuild the structure from the payload and re-run the check
        from bistone.corpus import distributive_lattices
        from bistone.dlattice import DLattice, validate_dlattice

        rebuilt = None
        for plus in distributive_lattices(4):
            for minus in distributive_lattices(4):
                if plus.n != payload["plus_size"] or minus.n != payload["minus_size"]:
                    continue
                shell = DLattice(plus, minus, 0, 0)
                con = 0
                for a, b in payload["con"]:
                    con |= 1 << shell.pid(a, b)
                tot = 0
                for a, b in payload["tot"]:
                    tot |= 1 << shell.pid(a, b)
                cand = DLattice(plus, minus, con, tot)
                if validate_dlattice(cand).ok and not du.spatiality_check(cand)[0]:
                    rebuilt = cand
        assert rebuilt is not None
        ok, detail = du.spatiality_check(rebuilt)
        assert not ok and detail == payload["violation"]


def test_naturality_square(chain2, chain3):
    A, Bb = lambda_of_dislat(chain2), lambda_of_dislat(chain3)
    homs = enumerate_dlattice_homs(A, Bb)
    assert len(homs) == len(enumerate_lattice_homs(chain2, chain3))
    specA, specB = du.spectrum(A), du.spectrum(Bb)
    for hom in homs:
        mapping = []
        for g in specB.primes:
            composed = tuple(g.values[hom.apply(p)] for p in range(A.size))
            matches = [k for k, h in enumerate(specA.primes) if h.values == composed]
            assert len(matches) == 1
            mapping.append(matches[0])
        assert bt.is_continuous(mapping, specB.space, specA.space)
