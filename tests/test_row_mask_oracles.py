"""The row-mask decisions of the hom validators, of ``dB``'s sublattices and
of ``lattice.ideal_generator`` against the scans they replaced, kept here as
test-only references: the per-pair con/tot walk of
``dlattice._con_tot_failure``, the per-pair product check of
``validate_carrier_hom``, ``dB``'s rebuild of each side through
``build_lattice`` compared with L's tables, and the join scan that
``ideal_generator`` ran before looking for a greatest member.  A failing
case compares the whole report, or the exception type and message.

The corpora: every (f₊, f₋) pair of lattice homs over the ordered pairs of
``dbool_corpus(3)`` and 20,000 drawn from those of ``dbool_corpus(4)``;
every map the ``prime-triple-equivalence`` row builds from the default
bundle; the bundle's d-lattices and the valid Q2 candidates at bound 4;
every subset of every distributive lattice with 2 to 8 elements.  And the
guards that stay: ``dB``'s sublattice guard under ``python -O``, its raise
on a side with no d-complemented element, and ``ideal_generator``'s
principal-ideal guard on a join table that disagrees with the order."""

import random

import pytest
from test_validate_oracle import _q2_candidates

from bistone.corpus import boolean_lattice, chain, dbool_corpus, distributive_lattices, unlabeled_posets
from bistone.dlattice import (
    DLattice,
    DLatticeHom,
    _con_tot_failure,
    bool_dlattice,
    dB,
    d_complement,
    d_complemented_sides,
    validate_carrier_hom,
    validate_dlattice,
)
from bistone.errors import InvariantViolation, NotBounded
from bistone.ideals import BOOL_PIDS
from bistone.lattice import (
    FiniteLattice,
    LatticeHom,
    birkhoff,
    bits,
    build_lattice,
    down_sets,
    enumerate_lattice_homs,
    extreme_of,
    ideal_generator,
    validate_lattice_hom,
)
from bistone.report import StructReport
from bistone.suites import _all_bmaps, _candidate_bmaps, all_dlattices

# ---------------------------------------------------------------------------
# the con/tot clause of a d-lattice hom


def con_tot_failure_by_pairs(hom):
    """Reference: each consistent pair, then each total pair, in pair-id
    order, its image looked up in the target mask."""
    src, tgt = hom.source, hom.target
    src_nm, tgt_nm = src.minus.n, tgt.minus.n
    for name, word, src_mask, tgt_mask in (
        ("con", "consistent", src.con_mask, tgt.con_mask),
        ("tot", "total", src.tot_mask, tgt.tot_mask),
    ):
        for p in bits(src_mask):
            a, b = divmod(p, src_nm)
            if not (tgt_mask >> (hom.fplus[a] * tgt_nm + hom.fminus[b])) & 1:
                return StructReport.failed(
                    name,
                    witness=src.labels_of(p),
                    message=f"image of {word} pair {src.pair_label(p)} not {word}",
                )
    return None


def component_homs(algebras):
    """Per ordered pair (src, tgt), its plus and minus lattice-hom maps."""
    out = []
    for src in algebras:
        for tgt in algebras:
            plus_maps = [h.mapping for h in enumerate_lattice_homs(src.plus, tgt.plus)]
            minus_maps = [h.mapping for h in enumerate_lattice_homs(src.minus, tgt.minus)]
            out.append((src, tgt, plus_maps, minus_maps))
    return out


def check_con_tot(homs):
    """Each hom's ``_con_tot_failure`` equals the walk; the count per axiom."""
    fired = {}
    for hom in homs:
        want = con_tot_failure_by_pairs(hom)
        assert _con_tot_failure(hom) == want, (hom.fplus, hom.fminus)
        axiom = None if want is None else want.axiom
        fired[axiom] = fired.get(axiom, 0) + 1
    return fired


def test_con_tot_failure_matches_pair_walk_on_every_pair_of_dbool_corpus_3():
    homs = [
        DLatticeHom(src, tgt, fp, fm)
        for src, tgt, plus_maps, minus_maps in component_homs(dbool_corpus(3))
        for fp in plus_maps
        for fm in minus_maps
    ]
    assert len(homs) == 6642
    fired = check_con_tot(homs)
    assert set(fired) == {None, "con", "tot"}, fired


def test_con_tot_failure_matches_pair_walk_on_drawn_pairs_of_dbool_corpus_4():
    pairs = component_homs(dbool_corpus(4))
    sizes = [len(plus_maps) * len(minus_maps) for _, _, plus_maps, minus_maps in pairs]
    assert sum(sizes) == 1_936_680
    picks = sorted(random.Random(38).sample(range(sum(sizes)), 20_000))
    homs, start, k = [], 0, 0
    for (src, tgt, plus_maps, minus_maps), size in zip(pairs, sizes):
        while k < len(picks) and picks[k] < start + size:
            i, j = divmod(picks[k] - start, len(minus_maps))
            homs.append(DLatticeHom(src, tgt, plus_maps[i], minus_maps[j]))
            k += 1
        start += size
    assert len(homs) == 20_000
    fired = check_con_tot(homs)
    assert set(fired) == {None, "con", "tot"} and min(fired.values()) > 100, fired


# ---------------------------------------------------------------------------
# carrier maps


def validate_dlattice_hom_by_pairs(hom):
    """Reference: ``validate_dlattice_hom`` with the con/tot walk."""
    src, tgt = hom.source, hom.target
    for name, f, L, M in (("plus", hom.fplus, src.plus, tgt.plus), ("minus", hom.fminus, src.minus, tgt.minus)):
        rep = validate_lattice_hom(LatticeHom(L, M, tuple(f)))
        if not rep.ok:
            bounds = {"bottom": "ff" if name == "plus" else "tt", "top": "tt" if name == "plus" else "ff"}
            clause = bounds.get(rep.axiom, rep.axiom)
            return StructReport.failed(
                f"{name}-{rep.axiom}" if rep.axiom in ("meet", "join", "total") else clause,
                witness=rep.witness,
                message=f"{name} component: {rep.message}",
            )
    failure = con_tot_failure_by_pairs(hom)
    return failure if failure is not None else StructReport.passed("valid d-lattice homomorphism")


def validate_carrier_hom_by_pairs(src, tgt, values):
    """Reference: ``validate_carrier_hom`` with clause 3 checked pair by
    pair and clause 4 by ``validate_dlattice_hom_by_pairs``."""
    for name, p, q in (("tt", src.tt, tgt.tt), ("ff", src.ff, tgt.ff)):
        if values[p] != q:
            return StructReport.failed(name, witness=int(values[p]))
    P, M, tnm = src.plus, src.minus, tgt.minus.n
    on_plus = [src.pid(a, M.bot) for a in range(P.n)]
    on_minus = [src.pid(P.bot, b) for b in range(M.n)]
    for p in on_plus:
        if values[p] % tnm != tgt.minus.bot:
            return StructReport.failed("meet", witness=(p, src.tt))
    for p in on_minus:
        if values[p] // tnm != tgt.plus.bot:
            return StructReport.failed("meet", witness=(p, src.ff))
    fplus = tuple(values[p] // tnm for p in on_plus)
    fminus = tuple(values[p] % tnm for p in on_minus)
    for p in range(src.size):
        a, b = src.unpid(p)
        if values[p] != fplus[a] * tnm + fminus[b]:
            return StructReport.failed("join", witness=(on_plus[a], on_minus[b]))
    rep = validate_dlattice_hom_by_pairs(DLatticeHom(src, tgt, fplus, fminus))
    if rep.ok:
        return StructReport.passed()
    side, _, op = rep.axiom.partition("-")
    if op in ("meet", "join"):
        ends = on_plus if side == "plus" else on_minus
        return StructReport.failed(op, witness=tuple(ends[x] for x in rep.witness))
    return rep


def test_carrier_hom_matches_pair_scan_on_the_prime_triple_maps(bundle):
    """All 4⁴ maps on the size-4 d-lattices and the candidate maps on the
    others, as ``check_prime_triple_equivalence`` builds them."""
    B = bool_dlattice()
    fired, total = {}, 0
    for dl in all_dlattices(bundle):
        maps = _all_bmaps(dl) if dl.size <= 6 else _candidate_bmaps(dl)
        for m in maps:
            values = tuple(BOOL_PIDS[v] for v in m.values)
            want = validate_carrier_hom_by_pairs(dl, B, values)
            assert validate_carrier_hom(dl, B, values) == want, (values, want)
            fired[want.axiom] = fired.get(want.axiom, 0) + 1
            total += 1
    assert set(fired) == {None, "tt", "ff", "meet", "join", "con", "tot"}, fired
    assert total > 2000


# ---------------------------------------------------------------------------
# dB's sublattices


def sublattice_by_build(L, elems):
    """Reference: ``build_lattice`` on the induced order, whose tables must
    be L's read at elems."""
    sub = build_lattice([L.labels[a] for a in elems], [[L.leq(a, b) for b in elems] for a in elems])
    index = {a: i for i, a in enumerate(elems)}.get
    for table, sub_table in ((L.meet, sub.meet), (L.join, sub.join)):
        if tuple(tuple(index(table[a][b]) for b in elems) for a in elems) != sub_table:
            raise InvariantViolation("d-complemented elements failed to be a sublattice")
    return sub


@pytest.fixture(scope="module")
def dB_inputs(bundle):
    q2 = [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok]
    assert len(q2) == 135
    return all_dlattices(bundle) + q2


def test_dB_sides_match_build_lattice(dB_inputs):
    kept = 0
    for dl in dB_inputs:
        cor = dB(dl)
        bplus, bminus = d_complemented_sides(dl)
        assert (cor.embed_plus, cor.embed_minus) == (tuple(bplus), tuple(bminus))
        for got, L, elems in ((cor.algebra.plus, dl.plus, bplus), (cor.algebra.minus, dl.minus, bminus)):
            want = sublattice_by_build(L, elems)
            assert (got.labels, got.up, got.bot, got.top) == (want.labels, want.up, want.bot, want.top)
            assert (got.meet, got.join) == (want.meet, want.join)
        # the dagger is each plus element's d-complement, found by d_complement
        index = {b: j for j, b in enumerate(bminus)}
        assert cor.algebra.dagger == tuple(index[d_complement(dl, a, "+")] for a in bplus)
        kept += len(bplus) < dl.plus.n
    assert kept > 10


def test_dB_without_d_complemented_elements_raises_as_the_build_did(dB_inputs):
    """With con and tot empty no element is d-complemented, and the first
    side raises as ``build_lattice`` raises on the empty carrier."""
    dl = dB_inputs[0]
    empty = DLattice(dl.plus, dl.minus, 0, 0)
    assert d_complemented_sides(empty) == ([], [])
    assert outcome(dB, empty) == outcome(sublattice_by_build, dl.plus, []) == (NotBounded, "empty carrier has no bottom element")


GUARD_SCRIPT = """
from bistone import dlattice
from bistone.corpus import boolean_lattice
from bistone.errors import InvariantViolation, NotBounded

dl = dlattice.lambda_of_dislat(boolean_lattice(3))
# {}, {a0}, {a1} and the top: a diamond under the induced order, yet {a0} ∪ {a1}
# is missing, so the set is not closed under plus's join nor under minus's meet
diamond, everything = [0, 1, 2, 7], list(range(8))
for sides in ((diamond, everything), (everything, diamond)):
    dlattice.d_complemented_sides = lambda dl, sides=sides: sides
    try:
        dlattice.dB(dl)
    except InvariantViolation as exc:
        print(exc)
    else:
        print("no violation")
"""


def test_dB_sublattice_guard_survives_python_O(run_python):
    result = run_python("-O", "-c", GUARD_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["d-complemented elements failed to be a sublattice"] * 2


# ---------------------------------------------------------------------------
# ideal generators


def ideal_generator_by_join_scan(lattice, mask):
    """Reference: the down-closure check, then every pair's join, then the
    greatest member."""
    if mask == 0:
        raise ValueError("ideal must be nonempty")
    for a in bits(mask):
        if lattice.down[a] & ~mask:
            raise ValueError(f"carrier not downward closed at {lattice.labels[a]}")
    for a in bits(mask):
        for b in bits(mask):
            if not (mask >> lattice.join[a][b]) & 1:
                raise ValueError("carrier not closed under join")
    gen = extreme_of(mask, lattice.down)
    if gen is None:
        raise InvariantViolation("finite ideal must be principal")
    return gen


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, InvariantViolation, NotBounded) as exc:
        return type(exc), str(exc)


def test_ideal_generator_matches_join_scan_on_every_subset():
    """Over the 35 distributive lattices with 2 to 8 elements:
    ``distributive_lattices(7)`` and the D(p) with 8 elements, whose p has
    at most 6 elements but for the 7-chain (A006982: 15 of size 8)."""
    eight = [birkhoff(p) for p in unlabeled_posets(6) if len(down_sets(p)) == 8] + [chain(8)]
    lattices = distributive_lattices(7) + eight
    assert (len(lattices), len({L.isomorphism_signature() for L in lattices})) == (35, 35)
    seen, total = set(), 0
    for L in lattices:
        for mask in range(1 << L.n):
            want = outcome(ideal_generator_by_join_scan, L, mask)
            assert outcome(ideal_generator, L, mask) == want, (L.labels, mask)
            seen.add("generator" if type(want) is int else want[1].partition(" at ")[0])
            total += 1
    assert seen == {
        "generator",
        "ideal must be nonempty",
        "carrier not downward closed",
        "carrier not closed under join",
    }
    assert total == sum(1 << L.n for L in lattices)


def test_ideal_generator_guard_fires_on_a_join_table_against_the_order():
    """{0, a, b} of the four-element Boolean lattice has no greatest member;
    with a ∨ b read as a, the join scan finds no pair to name."""
    L = boolean_lattice(2)
    join = tuple(
        tuple(1 if {x, y} == {1, 2} else v for y, v in enumerate(row)) for x, row in enumerate(L.join)
    )
    tampered = FiniteLattice(L, L.bot, L.top, L.meet, join)
    want = (InvariantViolation, "finite ideal must be principal")
    assert outcome(ideal_generator, tampered, 0b0111) == want
    assert outcome(ideal_generator_by_join_scan, tampered, 0b0111) == want
    assert outcome(ideal_generator, L, 0b0111) == (ValueError, "carrier not closed under join")
