"""The cover-step kernels of the Q2 census against the scans they replaced,
kept here as test-only references: the row closure-gap and extremal-member
scans of ``validate_dlattice``, the numpy quadruple scans of the d-ideal and
d-filter validators, ideal lattices rebuilt by ``build_lattice``, the
pair-by-pair clause (i) scan (now an oracle for the lemma that makes the
clause hold), the per-pair d-filter map of a generator pair and the
nested d-lattice hom enumeration; plus the ``python -O`` guards of
``ideals`` and of spatiality clause (i), the number of
``validate_dlattice`` calls in one Q2 census pass, and that its
spatiality checks build no prime map and no space."""

import hashlib
import random
import sys
import textwrap
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from test_lattice_oracles import first_index
from test_validate_oracle import _q2_candidates, _single_bit_mutants, pair_rows

from bistone import dlattice as dlattice_module
from bistone import duality as du
from bistone.bitop import BiTopSpace
from bistone.corpus import birkhoff_corpus, chain, dbool_corpus, distributive_lattices, unlabeled_posets
from bistone.dlattice import (
    CoordinateTables,
    DLattice,
    DLatticeHom,
    bool_dlattice,
    closure,
    coordinate_tables,
    enumerate_dlattice_homs,
    lambda_of_dislat,
    omega_of_lattice,
    step,
    validate_dlattice,
)
from bistone.errors import CoveringViolation, InvariantViolation
from bistone.ideals import (
    B_NAMES,
    BFF,
    BMap,
    BTT,
    B0,
    B1,
    four_case_values,
    idl_dframe,
    require_covering,
    validate_d_filter_map,
    validate_d_ideal_map,
)
from bistone.lattice import (
    FinitePoset,
    bits,
    build_lattice,
    enumerate_lattice_homs,
    low_bit,
)
from bistone.report import StructReport

# ---------------------------------------------------------------------------
# closure and extremal members


def closure_gap(rows, plus_rel, minus_rel):
    """Reference: lowest (a, b) of the closure of a pair set that the set
    misses, or None; (up, down) coordinate rows give the down-closure,
    (down, up) rows the up-closure."""
    for a, row in enumerate(rows):
        reach = 0
        for a2 in bits(plus_rel[a]):
            reach |= rows[a2]
        closed = 0
        for b in bits(reach):
            closed |= minus_rel[b]
        missing = closed & ~row
        if missing:
            return a, (missing & -missing).bit_length() - 1
    return None


def extremal_members(dl, rows, plus_rel, minus_rel):
    """Reference: maximal members of a down-set (up rows of both
    coordinates) or minimal members of an up-set (down rows), row by row."""
    nm = dl.minus.n
    out = []
    for a, row in enumerate(rows):
        beyond = 0
        for a2 in bits(plus_rel[a] & ~(1 << a)):
            beyond |= rows[a2]
        for b in bits(row & ~beyond):
            if row & minus_rel[b] == 1 << b:
                out.append(a * nm + b)
    return out


@pytest.fixture(scope="module")
def q2_inputs():
    candidates = _q2_candidates(4)
    valid = [dl for dl in candidates if validate_dlattice(dl).ok]
    return candidates + [m for dl in valid for m in _single_bit_mutants(dl)]


def test_step_kernel_matches_row_scans(q2_inputs):
    seen = set()
    for dl in q2_inputs:
        P, M = dl.plus, dl.minus
        tables = coordinate_tables(dl)
        down, up = tables.down_steps, tables.up_steps
        for mask, steps, closure_rels, extremal_rels in (
            (dl.con_mask, down, (P.up, M.down), (P.up, M.up)),
            (dl.tot_mask, up, (P.down, M.up), (P.down, M.down)),
        ):
            rows = pair_rows(dl, mask)
            beyond = step(mask, steps)
            gap = closure_gap(rows, *closure_rels)
            closed = gap is None
            assert closed == (beyond & ~mask == 0)
            if not closed:
                missing = closure(mask, steps) & ~mask
                assert dl.unpid((missing & -missing).bit_length() - 1) == gap
            else:
                assert sorted(extremal_members(dl, rows, *extremal_rels)) == list(bits(mask & ~beyond))
            seen.add(closed)
    assert seen == {True, False}


def test_step_kernel_on_large_carriers():
    for A in dbool_corpus(5):
        if A.size <= 64:
            continue
        tables = coordinate_tables(A)
        assert step(A.con_mask, tables.down_steps) & ~A.con_mask == 0
        assert step(A.tot_mask, tables.up_steps) & ~A.tot_mask == 0
        rows = pair_rows(A, A.con_mask)
        maximal = A.con_mask & ~step(A.con_mask, tables.down_steps)
        assert sorted(extremal_members(A, rows, A.plus.up, A.minus.up)) == list(bits(maximal))


def covers_by_scan(poset, i):
    """Reference: elements strictly above i with nothing strictly between."""
    strict = poset.up[i] & ~(1 << i)
    return [j for j in bits(strict) if not any(k != j and poset.leq(k, j) for k in bits(strict))]


def covers(poset, i):
    """Elements covering i, lowest first, read from the cover rows."""
    return list(bits(poset.cover_up[i]))


def test_cover_masks_match_scan():
    posets = unlabeled_posets(5)
    assert len(posets) == 87
    for poset in posets:
        n = poset.n
        want = [covers_by_scan(poset, i) for i in range(n)]
        assert [covers(poset, i) for i in range(n)] == want
        assert poset.hasse == tuple((i, j) for i in range(n) for j in want[i])
        dual = poset.dual()
        assert [list(bits(poset.cover_down[i])) for i in range(n)] == [
            covers_by_scan(dual, i) for i in range(n)
        ]


def test_relabeled_poset_keeps_order():
    poset = FinitePoset(["p", "q", "r"], [[True, True, True], [False, True, True], [False, False, True]])
    other = poset.relabeled("xyz")
    assert other.labels == ("x", "y", "z")
    assert (other.up, other.down, other.hasse) == (poset.up, poset.down, poset.hasse)
    with pytest.raises(ValueError):
        poset.relabeled("xy")


# ---------------------------------------------------------------------------
# prime d-ideal validators


def value_matrix(bmap):
    """The values of a map as a plus × minus numpy matrix."""
    dl = bmap.dlattice
    return np.asarray(bmap.values, dtype=np.uint8).reshape(dl.plus.n, dl.minus.n)


def validate_d_ideal_map_numpy(dl, bmap):
    """Reference: the validator with the numpy quadruple join scan."""
    V = value_matrix(bmap)
    if bmap(dl.tt) & BFF:
        return StructReport.failed("g(tt)<=tt", witness=B_NAMES[bmap(dl.tt)])
    if bmap(dl.ff) & BTT:
        return StructReport.failed("g(ff)<=ff", witness=B_NAMES[bmap(dl.ff)])
    for p in bits(dl.con_mask):
        if bmap.values[p] == B1:
            return StructReport.failed(
                "g(con)", witness=dl.labels_of(p), message="a consistent pair is sent to 1"
            )
    lhs = V[np.asarray(dl.plus.join)][:, :, np.asarray(dl.minus.join)]
    rhs = V[:, None, :, None] | V[None, :, None, :]
    bad = first_index(lhs != rhs)
    if bad is not None:
        a, a2, b, b2 = bad
        return StructReport.failed(
            "join-preservation",
            witness=(dl.pair_label(dl.pid(a, b)), dl.pair_label(dl.pid(a2, b2))),
        )
    return StructReport.passed("valid d-ideal map")


def validate_d_filter_map_numpy(dl, bmap):
    """Reference: the validator with the numpy quadruple meet scan."""
    V = value_matrix(bmap)
    if not bmap(dl.tt) & BTT:
        return StructReport.failed("f(tt)>=tt", witness=B_NAMES[bmap(dl.tt)])
    if not bmap(dl.ff) & BFF:
        return StructReport.failed("f(ff)>=ff", witness=B_NAMES[bmap(dl.ff)])
    for p in bits(dl.tot_mask):
        if bmap.values[p] == B0:
            return StructReport.failed(
                "f(tot)", witness=dl.labels_of(p), message="a total pair is sent to 0"
            )
    lhs = V[np.asarray(dl.plus.meet)][:, :, np.asarray(dl.minus.meet)]
    rhs = V[:, None, :, None] & V[None, :, None, :]
    bad = first_index(lhs != rhs)
    if bad is not None:
        a, a2, b, b2 = bad
        return StructReport.failed(
            "meet-preservation",
            witness=(dl.pair_label(dl.pid(a, b)), dl.pair_label(dl.pid(a2, b2))),
        )
    return StructReport.passed("valid d-filter map")


def test_map_validators_match_numpy_scans():
    shell = DLattice(chain(2), chain(3), 0, 0)
    inputs = [bool_dlattice(), omega_of_lattice(chain(2)), shell]
    total, fired = 0, set()
    for dl in inputs:
        for values in product((B0, BTT, BFF, B1), repeat=dl.size):
            bmap = BMap(dl, values)
            for fast, slow in (
                (validate_d_ideal_map, validate_d_ideal_map_numpy),
                (validate_d_filter_map, validate_d_filter_map_numpy),
            ):
                want = slow(dl, bmap)
                assert fast(dl, bmap) == want
                fired.add(want.axiom)
            total += 1
    assert total == 4608
    assert fired == {
        None,
        "g(tt)<=tt",
        "g(ff)<=ff",
        "g(con)",
        "join-preservation",
        "f(tt)>=tt",
        "f(ff)>=ff",
        "f(tot)",
        "meet-preservation",
    }


# ---------------------------------------------------------------------------
# the ideal d-frame


def ideal_lattice_by_build(L):
    """Reference: the ideal lattice rebuilt from carrier inclusion."""
    leq = [[L.down[i] & ~L.down[j] == 0 for j in range(L.n)] for i in range(L.n)]
    return build_lattice([f"↓{lab}" for lab in L.labels], leq)


def test_ideal_lattices_match_build_lattice():
    lattices = list(distributive_lattices(5)) + [L for L in birkhoff_corpus(4) if L.n > 1]
    dls = [omega_of_lattice(L) for L in lattices] + list(dbool_corpus(4))
    for dl in dls:
        df = idl_dframe(dl)
        for got, L in ((df.plus, dl.plus), (df.minus, dl.minus)):
            want = ideal_lattice_by_build(L)
            assert got.labels == want.labels
            assert (got.up, got.down, got.bot, got.top) == (want.up, want.down, want.bot, want.top)
            assert got.meet == want.meet and got.join == want.join


# ---------------------------------------------------------------------------
# spatiality clause (i)


@pytest.fixture(scope="module")
def kernel_dls():
    """Every valid Q2 candidate at bound 4 plus the d-Boolean corpus up to
    4-element posets."""
    return [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok] + list(dbool_corpus(4))


def clause_i_by_scan(spec, literal_pair_limit):
    """Reference: the clause (i) scans as they ran on every spectrum."""
    np_, nm = len(spec.phi_plus), len(spec.phi_minus)
    if np_ * nm <= literal_pair_limit:
        for i1, j1, i2, j2 in product(range(np_), range(nm), range(np_), range(nm)):
            if (i1, j1) != (i2, j2) and spec.phi_plus[i1] == spec.phi_plus[i2] and (
                spec.phi_minus[j1] == spec.phi_minus[j2]
            ):
                return f"clause (i): ideals ({i1},{j1}) vs ({i2},{j2}) not separated"
        return None
    for i1 in range(np_):
        for i2 in range(i1 + 1, np_):
            if spec.phi_plus[i1] == spec.phi_plus[i2]:
                return f"clause (i): plus ideals {i1} vs {i2} not separated"
    for j1 in range(nm):
        for j2 in range(j1 + 1, nm):
            if spec.phi_minus[j1] == spec.phi_minus[j2]:
                return f"clause (i): minus ideals {j1} vs {j2} not separated"
    return None


def merge_two_opens(monkeypatch, side):
    """Make ``prime_pair_opens`` give the last ideal of one side the open of
    the first, so that φ₊ or φ₋ of a spectrum is no longer injective."""
    genuine = du.prime_pair_opens

    def merging_opens(dl, pairs):
        opens = dict(zip(("plus", "minus"), genuine(dl, pairs)))
        phi = list(opens[side])
        phi[-1] = phi[0]  # two distinct ideals with equal opens
        opens[side] = tuple(phi)
        return opens["plus"], opens["minus"]

    monkeypatch.setattr(du, "prime_pair_opens", merging_opens)


def prime_masks_dropping_last(side):
    """A stand-in for ``CoordinateTables.prime_masks`` that drops the last
    prime generator m of one side.  Its covered mask stays in the scan,
    named by m's upper cover, so the other side keeps every partner and no
    prime pair has m as a side: φ₊ or φ₋ of the prime pairs is no longer
    injective.  Removing the entry outright would also strip the partner
    of m on a d-Boolean algebra, where each side has one partner, and the
    plus guard would fire for either side."""
    genuine = CoordinateTables.prime_masks
    index = ("plus", "minus").index(side)

    def dropping(tables):
        masks = list(genuine.__get__(tables, CoordinateTables))
        m, covered = masks[index][-1]
        upper_cover = low_bit(tables.posets[index].cover_up[m])
        masks[index] = masks[index][:-1] + ((upper_cover, covered),)
        return tuple(masks)

    return property(dropping)


def drop_last_prime_generator(monkeypatch, side):
    monkeypatch.setattr(CoordinateTables, "prime_masks", prime_masks_dropping_last(side))


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_clause_i_detail_under_non_injective_spectrum(monkeypatch, side):
    """A prime generator dropped from what ``spatiality_check`` reads, the
    ``prime_masks`` of the coordinate record: clause (i) cannot fail on a
    d-lattice, so the guard raises instead of returning a verdict."""
    drop_last_prime_generator(monkeypatch, side)
    big = lambda_of_dislat(max(birkhoff_corpus(4), key=lambda L: L.n))
    sign = "₊" if side == "plus" else "₋"
    for A in (lambda_of_dislat(chain(3)), omega_of_lattice(chain(3)), bool_dlattice(), big):
        with pytest.raises(InvariantViolation, match=f"clause \\(i\\): φ{sign} is not injective"):
            du.spatiality_check(A)


def test_clause_i_passes_where_scan_passes(kernel_dls):
    """The pair-by-pair scan finds every ideal pair separated on every
    kernel d-lattice, as the lemma of ``spatiality_check`` proves."""
    for dl in kernel_dls:
        assert clause_i_by_scan(du.spectrum(dl), 81) is None
        assert not du.spatiality_check(dl)[1].startswith("clause (i)")


def test_q2_census_pass_validates_each_candidate_once(monkeypatch):
    """One Q2 census pass at bound 5, re-verification included: every
    candidate is validated once and every non-spatial one once more on its
    fresh copy.  ``spatiality_check`` reads the input's own con/tot and
    validates nothing itself."""
    candidates = _q2_candidates(5)
    calls = 0

    def counting(dl):
        nonlocal calls
        calls += 1
        return validate_dlattice(dl)

    for name, mod in list(sys.modules.items()):
        if name == "bistone" or name.startswith("bistone."):
            for key, value in list(vars(mod).items()):
                if value is validate_dlattice:
                    monkeypatch.setattr(mod, key, counting)
    valid = non_spatial = 0
    for cand in candidates:
        if not dlattice_module.validate_dlattice(cand).ok:
            continue
        valid += 1
        ok, detail = du.spatiality_check(cand)
        if not ok:
            non_spatial += 1
            fresh = DLattice(cand.plus, cand.minus, cand.con_mask, cand.tot_mask)
            assert dlattice_module.validate_dlattice(fresh).ok
            assert du.spatiality_check(fresh) == (False, detail)
    assert (len(candidates), valid, non_spatial) == (39444, 2269, 248)
    assert calls == 39692


def test_q2_census_spatiality_builds_no_prime_maps_or_spaces(monkeypatch):
    """One Q2 census pass at bound 5: ``spatiality_check`` reads φ₊ and φ₋
    off the prime generators, so it builds no ``BMap`` (a prime d-ideal)
    and no ``BiTopSpace`` (a spectrum)."""
    built = {BMap: 0, BiTopSpace: 0}
    for cls in built:

        def counting(self, *args, genuine=cls.__init__, cls=cls, **kwargs):
            built[cls] += 1
            genuine(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    valid = [dl for dl in _q2_candidates(5) if validate_dlattice(dl).ok]
    verdicts = [du.spatiality_check(dl)[0] for dl in valid]
    assert (len(valid), verdicts.count(False)) == (2269, 248)
    assert built == {BMap: 0, BiTopSpace: 0}
    du.spectrum(valid[0])  # the counters count: a spectrum builds both
    assert built[BMap] > 0 and built[BiTopSpace] == 1


# ---------------------------------------------------------------------------
# d-filter maps and hom enumeration


def d_filter_to_map_by_membership(dl, u, v):
    """Reference: the per-pair covering scan and value table, read as
    membership of a in ↑u and of b in ↑v, one bit at a time."""

    def in_plus(a):
        return (dl.plus.up[u] >> a) & 1

    def in_minus(b):
        return (dl.minus.up[v] >> b) & 1

    for p in bits(dl.tot_mask):
        a, b = dl.unpid(p)
        if not (in_plus(a) or in_minus(b)):
            raise CoveringViolation(
                f"total pair ({dl.plus.labels[a]},{dl.minus.labels[b]}) not covered",
                witness=(a, b),
            )
    return tuple(
        (BTT if in_plus(a) else 0) | (BFF if in_minus(b) else 0)
        for a in range(dl.plus.n)
        for b in range(dl.minus.n)
    )


def test_d_filter_to_map_matches_membership_table(kernel_dls):
    """``require_covering`` on the one sets (↑u, ↑v) raises what the scan
    raises, and ``four_case_values`` of a covering pair is its table."""
    uncovered = 0
    for dl in kernel_dls + [omega_of_lattice(chain(3))]:
        for u in range(dl.plus.n):
            for v in range(dl.minus.n):
                plus, minus = dl.plus.up[u], dl.minus.up[v]
                try:
                    want = d_filter_to_map_by_membership(dl, u, v)
                except CoveringViolation as exc:
                    with pytest.raises(CoveringViolation) as got:
                        require_covering(dl, plus, minus, True)
                    assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
                    uncovered += 1
                    continue
                require_covering(dl, plus, minus, True)
                assert four_case_values(dl, plus, minus) == want
    assert uncovered


def enumerate_dlattice_homs_nested(src, tgt):
    """Reference: every plus hom times every minus hom, re-enumerated per
    plus hom, filtered by con/tot images through ``DLatticeHom.apply``."""
    out = []
    for fp in enumerate_lattice_homs(src.plus, tgt.plus):
        for fm in enumerate_lattice_homs(src.minus, tgt.minus):
            hom = DLatticeHom(src, tgt, fp.mapping, fm.mapping)
            if all(tgt.in_con(hom.apply(p)) for p in bits(src.con_mask)) and all(
                tgt.in_tot(hom.apply(p)) for p in bits(src.tot_mask)
            ):
                out.append(hom)
    return out


def test_hom_enumeration_matches_nested_loops():
    dls = [bool_dlattice(), omega_of_lattice(chain(2)), omega_of_lattice(chain(3))]
    dls += [lambda_of_dislat(L) for L in birkhoff_corpus(3) if L.n > 1]
    dls += [dl for dl in _q2_candidates(3) if validate_dlattice(dl).ok]
    total = 0
    for src in dls:
        for tgt in dls:
            want = [(h.fplus, h.fminus) for h in enumerate_dlattice_homs_nested(src, tgt)]
            got = [(h.fplus, h.fminus) for h in enumerate_dlattice_homs(src, tgt)]
            assert got == want
            total += len(got)
    assert total


def dbool_pairs():
    """The 576 ordered pairs of the 24 algebras of ``dbool_corpus(4)``."""
    algebras = dbool_corpus(4)
    return [(src, tgt) for src in algebras for tgt in algebras]


def test_dbool_hom_census_is_pinned():
    """Over the 576 pairs: 19,702 homs, and the sha256 of the repr of the
    per-pair lists of (fplus, fminus), in order, as the product scan of
    ``_con_tot_failure`` gave them."""
    lists = [[(h.fplus, h.fminus) for h in enumerate_dlattice_homs(src, tgt)] for src, tgt in dbool_pairs()]
    assert (len(lists), sum(map(len, lists))) == (576, 19702)
    digest = hashlib.sha256(repr(lists).encode()).hexdigest()
    assert digest == "fc9a067600282776195259ed5ceb93e49b78cb72a96a10b0cc3e3314d089fa1b"


def test_dbool_homs_match_nested_loops_on_a_sample():
    """On 48 of the 576 pairs, drawn with ``random.Random(31)``, the hom
    list is the nested reference's, in order."""
    pairs = dbool_pairs()
    for k in random.Random(31).sample(range(len(pairs)), 48):
        want = [(h.fplus, h.fminus) for h in enumerate_dlattice_homs_nested(*pairs[k])]
        assert [(h.fplus, h.fminus) for h in enumerate_dlattice_homs(*pairs[k])] == want


# ---------------------------------------------------------------------------
# python -O


def test_clause_i_guard_survives_python_O(run_python):
    """With a prime generator of either side dropped from ``prime_masks``,
    the clause (i) guard of ``spatiality_check`` still raises under
    ``python -O``."""
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_census_kernels import prime_masks_dropping_last
        from bistone import duality as du
        from bistone.dlattice import CoordinateTables, bool_dlattice
        from bistone.errors import InvariantViolation

        genuine = CoordinateTables.prime_masks
        for side in ("plus", "minus"):
            CoordinateTables.prime_masks = prime_masks_dropping_last(side)
            try:
                du.spatiality_check(bool_dlattice())
            except InvariantViolation as exc:
                print(type(exc).__name__, exc, sys.flags.optimize)
            CoordinateTables.prime_masks = genuine
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(
        f"InvariantViolation spatiality clause (i): φ{sign} is not injective on a d-lattice 1\n" for sign in "₊₋"
    )


def test_clause_i_guard_reads_the_meet_irreducible_mask_under_python_O(run_python):
    """With one extra bit in a record's meet-irreducible mask, that of the
    top, which is never a prime generator and so never a side, the clause
    (i) guard of ``spatiality_check`` raises under ``python -O``, for the
    extra bit on either side."""
    script = textwrap.dedent(
        """
        import sys
        from bistone import duality as du
        from bistone.dlattice import CoordinateTables, bool_dlattice
        from bistone.errors import InvariantViolation

        genuine = CoordinateTables.meet_irreducibles
        for index in (0, 1):
            def with_top(tables):
                masks = list(genuine.__get__(tables, CoordinateTables))
                masks[index] |= 1 << tables.posets[index].cover_up.index(0)  # the top
                return tuple(masks)

            CoordinateTables.meet_irreducibles = property(with_top)
            try:
                du.spatiality_check(bool_dlattice())
            except InvariantViolation as exc:
                print(type(exc).__name__, exc, sys.flags.optimize)
            CoordinateTables.meet_irreducibles = genuine
        print(du.spatiality_check(bool_dlattice()))
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(
        f"InvariantViolation spatiality clause (i): φ{sign} is not injective on a d-lattice 1\n" for sign in "₊₋"
    ) + "(True, 'spatial')\n"


def test_eta_guard_survives_python_O(run_python):
    """The ``eta-unit`` row validates the unit as a hom, and still reports
    a failed validation under ``python -O``."""
    script = textwrap.dedent(
        """
        import sys
        from bistone import suites
        from bistone.dlattice import bool_dlattice
        from bistone.report import StructReport

        suites.validate_dlattice_hom = lambda hom: StructReport.failed("patched")
        print(*suites.check_eta_unit(suites.CorpusBundle(dlattices=[bool_dlattice()])), sys.flags.optimize)
        """
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "eta", "is", "not", "a", "hom:", "patched", "1"]
