"""The per-coordinate-pair kernels of the Q2 census against the code they
replaced, kept here as test-only oracles: ``validate_dlattice`` with the
row/column con–tot loop and logic tables gathered on every call, the
pair-by-pair clause (ii)/(iii) loop of ``spatiality_check``, and the prime
scan that ran ``validate_d_filter_map`` on every covering pair.  Also the
prime generators against the numpy meet scan of the prime ideals (kept in
``test_hom_oracles``), the logic tables of the shared coordinate
record against the lattice's own tables, what the record cache holds
after the duality corpus, the label-free side verdicts each record
keeps for ``validate_dlattice``, the reports each lattice pair keeps
beside its record, and the spatial reflection against the opens φ₊ × φ₋
that ``spatiality_check`` read before it and against the prime-pair scan
that indexed the record's ``down_masks`` (``spatial_reflection_by_prime_pairs``),
with each record's meet-irreducible masks against the prime generators,
and the cells each record's prime grid picks by its witness bits against
the covering scan they replaced (``prime_cells_by_scan``), with the
witnesses against the prime filters they generate.  The closed pair sets
the Q2 census starts from (``duality._down_sets_of_product`` and
``_up_sets_containing``) are checked against the product-row closure and
the cover-step search they replaced."""

import gc
import random
from functools import lru_cache

import pytest
from test_dlattice import one
from test_census_kernels import prime_masks_dropping_last
from test_hom_oracles import prime_ideals_numpy
from test_validate_oracle import _q2_candidates, _single_bit_mutants, pair_rows

from bistone import dlattice as dlattice_module
from bistone import duality as du
from bistone import ideals
from bistone.bitop import disjoint_and_covering, stone_space_from_poset
from bistone.corpus import dbool_corpus, distributive_lattices, unlabeled_posets
from bistone.dlattice import (
    CoordinateTables,
    DLattice,
    closure,
    coordinate_tables,
    covered_pairs,
    first_escape,
    lambda_of_dislat,
    logic_closed_on,
    step,
    unit_masks,
    validate_dlattice,
)
from bistone.errors import InvariantViolation
from bistone.ideals import (
    BMap,
    enumerate_prime_d_ideals,
    ideal_map,
    prime_pair_opens,
    prime_pairs,
    validate_d_filter_map,
)
from bistone.lattice import FiniteLattice, FinitePoset, birkhoff, bits, build_lattice, low_bit, mask_of, prime_generators
from bistone.report import StructReport


@pytest.fixture(scope="module")
def bound5():
    candidates = _q2_candidates(5)
    return candidates, [dl for dl in candidates if validate_dlattice(dl).ok]


@pytest.fixture(scope="module")
def corpus():
    """The 87 posets with at most 5 elements, as λ of their down-set
    lattices and as Stone spaces."""
    return [(lambda_of_dislat(birkhoff(p)), stone_space_from_poset(p)) for p in unlabeled_posets(5)]


# ---------------------------------------------------------------------------
# validate_dlattice


def validate_dlattice_by_rows(dl):
    """Oracle: ``validate_dlattice`` with the logic tables gathered from the
    lattices on every call and the con–tot clause as a loop over the rows of
    con that rebuilds the rows above a per row."""
    P, M = dl.plus, dl.minus
    if P.n < 2 or M.n < 2:
        return StructReport.failed(
            "degenerate-pair",
            message="{tt,ff} = {1,0}: a coordinate lattice is trivial",
        )
    con, tot = dl.con_mask, dl.tot_mask
    tt, ff = dl.tt, dl.ff
    for name, mask in (("con", con), ("tot", tot)):
        if not (mask >> tt) & (mask >> ff) & 1:
            w = "ff" if (mask >> tt) & 1 else "tt"
            return StructReport.failed(f"{name}-tt-ff", witness=w, message=f"{w} not in {name}")
    extremal = []
    for axiom, name, mask, downward, word in (
        ("con-scott-closed", "con", con, True, "smaller"),
        ("tot-upper-set", "tot", tot, False, "larger"),
    ):
        steps = coordinate_tables(dl).down_steps if downward else coordinate_tables(dl).up_steps
        moved = step(mask, steps)
        if moved & ~mask:
            a, b = dl.unpid(low_bit(closure(mask, steps) & ~mask))
            return StructReport.failed(
                axiom,
                witness=(P.labels[a], M.labels[b]),
                message=f"{name} misses the {word} pair ({P.labels[a]},{M.labels[b]})",
            )
        extremal.append(mask & ~moved)
    tables = (("logic-meet", P.meet, M.join), ("logic-join", P.join, M.meet))
    for name, mask, deciding in zip(("con", "tot"), (con, tot), extremal):
        if logic_closed_on(dl, tables, mask, deciding):
            continue
        members = list(bits(mask))
        for op_name, plus_table, minus_table in tables:
            escape = first_escape(dl, plus_table, minus_table, mask, members)
            if escape is not None:
                w = (dl.labels_of(escape[0]), dl.labels_of(escape[1]))
                return StructReport.failed(
                    f"{name}-logic-sublattice",
                    witness=w,
                    message=f"{name} not closed under {op_name} at {w}",
                )
    nm = M.n
    row0, col0 = unit_masks(P.n, nm)
    for a, con_row in enumerate(pair_rows(dl, con)):
        if not con_row:
            continue
        rows_above = 0  # column 0 of the rows at or above a
        for a2 in bits(P.up[a]):
            rows_above |= 1 << (a2 * nm)
        for b in bits(con_row):
            not_above = tot & (((row0 & ~M.up[b]) << (a * nm)) | ((col0 & ~rows_above) << b))
            if not_above:
                alpha, beta = dl.labels_of(a * nm + b), dl.labels_of(low_bit(not_above))
                return StructReport.failed(
                    "con-tot",
                    witness={"alpha": alpha, "beta": beta},
                    message=f"consistent {alpha} shares a coordinate with total {beta} but is not below it",
                )
    return StructReport.passed("valid d-lattice")


def test_validate_matches_row_loop_on_bound5_candidates(bound5):
    candidates, valid = bound5
    fired = {}
    for dl in candidates:
        want = validate_dlattice_by_rows(dl)
        assert validate_dlattice(dl) == want
        fired[want.axiom] = fired.get(want.axiom, 0) + 1
    assert (len(candidates), len(valid)) == (39444, 2269)
    assert fired == {None: 2269, "con-tot": 37175}


def fresh_record_cache(monkeypatch, filled=None):
    """Replace the record cache by an empty one of the same bound, which
    appends each record it fills to ``filled``, and empty the records and
    report memos held on every live lattice pair, so that each pair's next
    lookup reads the new cache."""
    for obj in gc.get_objects():
        if type(obj) is FiniteLattice:
            obj.paired_tables.clear()

    def filling(tables):
        if filled is not None:
            filled.append(tables)
        return tables

    maxsize = dlattice_module._shared_tables.cache_info().maxsize
    monkeypatch.setattr(dlattice_module, "_shared_tables", lru_cache(maxsize=maxsize)(filling))


def down_up_pairs(plus, minus):
    """Every d-lattice candidate on (plus, minus) whose con is a down-set
    and whose tot is an up-set, con outer."""
    shell = DLattice(plus, minus, 0, 0)
    ups = du._up_sets_containing(shell, 0)
    return [DLattice(plus, minus, con, tot) for con in du._down_sets_of_product(shell, 0)[0] for tot in ups]


def down_up_pairs_bound4():
    lattices = du._distributive_lattices_upto(4)
    return [dl for plus in lattices for minus in lattices for dl in down_up_pairs(plus, minus)]


def test_validate_matches_row_loop_on_down_up_pairs_bound4():
    """Every down-set con and up-set tot of every coordinate pair at bound
    4, so the tt/ff and logic clauses fail too."""
    fired = {}
    checked = 0
    for dl in down_up_pairs_bound4():
        want = validate_dlattice_by_rows(dl)
        assert validate_dlattice(dl) == want
        fired[want.axiom] = fired.get(want.axiom, 0) + 1
        checked += 1
    assert checked == 64510
    assert set(fired) == {
        None,
        "con-tt-ff",
        "tot-tt-ff",
        "con-logic-sublattice",
        "tot-logic-sublattice",
        "con-tot",
    }


def test_down_up_pairs_bound4_in_reverse_from_an_empty_cache(monkeypatch):
    """The side verdicts kept on each record do not depend on the order in
    which the masks first arrive: the bound-4 pairs, last first, from an
    empty record cache, still match the oracle."""
    fresh_record_cache(monkeypatch)
    inputs = down_up_pairs_bound4()[::-1]
    assert len(inputs) == 64510
    for dl in inputs:
        assert validate_dlattice(dl) == validate_dlattice_by_rows(dl)


DIAMOND = [[True, True, True, True], [False, True, False, True], [False, False, True, True], [False, False, False, True]]
CHAIN3 = [[True, True, True], [False, True, True], [False, False, True]]


def test_reports_from_a_shared_record_carry_the_callers_labels(monkeypatch):
    """Two coordinate pairs with the same orders and different labels share
    one record.  On each, a candidate failing each clause that reads the
    record's verdicts is validated, one labelling first and then the other,
    and then each again: every report equals the oracle's on its own labels,
    and the repeat is the report the pair's memo kept from its first call.
    The tot of the last candidate is the con of the passing one, a down-set
    that is not an up-set, so a verdict kept for a mask as con is not read
    for it as tot.  No report and no label is reachable from the record's
    verdicts."""
    labellings = [(["0", "x", "y", "1"], ["0", "m", "1"]), (["p", "q", "r", "s"], ["u", "v", "w"])]
    pairs = [(build_lattice(pl, DIAMOND), build_lattice(ml, CHAIN3)) for pl, ml in labellings]
    labels = {label for pl, ml in labellings for label in pl + ml}
    chosen = {}
    for dl in down_up_pairs(*pairs[0]):
        chosen.setdefault(validate_dlattice_by_rows(dl).axiom, (dl.con_mask, dl.tot_mask))
    con, tot = chosen[None]
    top = 1 << one(DLattice(*pairs[0], 0, 0))
    masks = [chosen[axiom] for axiom in ("con-logic-sublattice", "tot-logic-sublattice", "con-tot")]
    masks += [(con | top, tot), (con, con)]
    for order in (pairs, pairs[::-1]):
        fresh_record_cache(monkeypatch)
        reports = {}
        for plus, minus in order + order:
            for pair_masks in masks:
                dl = DLattice(plus, minus, *pair_masks)
                reports.setdefault(pair_masks, []).append(validate_dlattice(dl))
                assert reports[pair_masks][-1] == validate_dlattice_by_rows(dl)
        tables = coordinate_tables(DLattice(*pairs[0], 0, 0))
        assert tables is coordinate_tables(DLattice(*pairs[1], 0, 0))
        assert [first.axiom for first, *_ in reports.values()] == [
            "con-logic-sublattice",
            "tot-logic-sublattice",
            "con-tot",
            "con-scott-closed",
            "tot-upper-set",
        ]
        assert all(first.witness != second.witness for first, second, _, _ in reports.values())
        assert all(again is first and again2 is second for first, second, again, again2 in reports.values())
        leaves = reachable_leaves((tables.con_verdicts, tables.tot_verdicts))
        assert leaves and all(type(leaf) in (int, str, type(None)) for leaf in leaves)
        assert not labels & {leaf for leaf in leaves if type(leaf) is str}


def reachable_leaves(obj):
    """The objects reachable from obj through dicts and tuples that are
    neither, failing on a ``StructReport`` on the way."""
    leaves, stack = [], [obj]
    while stack:
        obj = stack.pop()
        assert not isinstance(obj, StructReport)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, tuple):
            stack.extend(obj)
        else:
            leaves.append(obj)
    return leaves


def holds_tables(logic, want):
    """Whether each coordinate table of ``logic`` is the very tuple that
    ``want`` names there, not a copy."""
    return all(got is table for (_, *gots), (_, *tables) in zip(logic, want) for got, table in zip(gots, tables))


def test_logic_tables_match_numpy_tables(corpus):
    """The logic tables of a d-lattice's coordinate record equal its own
    lattices' tables, also when the record is the shared one of an earlier
    lattice pair with the same up rows, at every carrier size; a record
    built for a pair holds that pair's tuples, not copies."""
    lattices = distributive_lattices(5) + [A.plus for A, _ in corpus] + [A.minus for A, _ in corpus]
    small = large = shared = 0
    for plus in lattices:
        for minus in lattices[:8] + lattices[-2:]:
            dl = DLattice(plus, minus, 0, 0)
            want = (("logic-meet", plus.meet, minus.join), ("logic-join", plus.join, minus.meet))
            tables = coordinate_tables(dl)
            assert tables.logic == want
            assert holds_tables(CoordinateTables(plus, minus).logic, want)
            small += dl.size <= 64
            large += dl.size > 64
            shared += not holds_tables(tables.logic, want)
    assert small and large and shared


# ---------------------------------------------------------------------------
# closed pair sets: the cover-step search against the product-row closure


def product_rows(dl, plus_rel, minus_rel):
    """Oracle: per pair id (a, b), the pair-id mask of plus_rel[a] × minus_rel[b]."""
    nm = dl.minus.n
    out = []
    for a in range(dl.plus.n):
        for b in range(nm):
            block = 0
            for a2 in bits(plus_rel[a]):
                block |= minus_rel[b] << (a2 * nm)
            out.append(block)
    return out


def closed_sets_by_growth(rows, seed_mask):
    """Oracle: all pair sets containing the seed that hold rows[p] for each
    member p, sorted; each grows from the seed's closure by one principal
    set at a time."""
    closed_seed = 0
    for p in bits(seed_mask):
        closed_seed |= rows[p]
    out = set()
    frontier = [closed_seed]
    while frontier:
        cur = frontier.pop()
        if cur in out:
            continue
        out.add(cur)
        for p, row in enumerate(rows):
            if not (cur >> p) & 1 and row & ~cur & ~(1 << p) == 0:
                frontier.append(cur | row)
    return sorted(out)


def closed_pair_sets_by_cover_steps(dl, seed_mask, downward):
    """Oracle: all down-sets (up-sets when not ``downward``) of the coordinate
    product that contain the seed, sorted.  The search starts at the seed's
    closure under the cover steps and adds one pair at a time: a pair outside
    the set may join when no step the other way reaches it from outside the
    set."""
    tables = coordinate_tables(dl)
    steps, back = (tables.down_steps, tables.up_steps) if downward else (tables.up_steps, tables.down_steps)
    full = (1 << dl.size) - 1
    start = closure(seed_mask, steps)
    out = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        rest = full & ~cur
        for p in bits(rest & ~step(rest, back)):
            grown = cur | (1 << p)
            if grown not in out:
                out.add(grown)
                frontier.append(grown)
    return sorted(out)


def coordinate_pair_shells(max_size):
    """An empty d-lattice shell per coordinate pair up to the bound, with
    seeds {tt, ff} and none."""
    lattices = du._distributive_lattices_upto(max_size)
    for plus in lattices:
        for minus in lattices:
            shell = DLattice(plus, minus, 0, 0)
            for seed in ((1 << shell.tt) | (1 << shell.ff), 0):
                yield shell, seed


def test_closed_pair_sets_match_product_rows_bound5():
    """On all 49 coordinate pairs up to size 5, with seeds {tt, ff} and
    none, the same lists in the same order."""
    assert len(du._distributive_lattices_upto(5)) == 7
    for shell, seed in coordinate_pair_shells(5):
        plus, minus = shell.plus, shell.minus
        downs = closed_sets_by_growth(product_rows(shell, plus.down, minus.down), seed)
        ups = closed_sets_by_growth(product_rows(shell, plus.up, minus.up), seed)
        assert du._down_sets_of_product(shell, seed)[0] == downs
        assert du._up_sets_containing(shell, seed) == ups


def test_closed_pair_sets_match_the_cover_step_search_bound5():
    """The same 98 shells and seeds: ``closed_sets`` over the product rows
    gives the lists of the cover-step search it replaced, in order."""
    shells = 0
    for shell, seed in coordinate_pair_shells(5):
        downs = du._down_sets_of_product(shell, seed)[0]
        assert downs == closed_pair_sets_by_cover_steps(shell, seed, True)
        assert du._up_sets_containing(shell, seed) == closed_pair_sets_by_cover_steps(shell, seed, False)
        shells += 1
    assert shells == 98


# ---------------------------------------------------------------------------
# spatiality clauses (ii) and (iii)


def spatiality_check_by_pairs(dl):
    """Oracle: the clause (i) guard as in the library, then (ii) and (iii)
    by a loop over the ideal pairs in row-major order, (ii) first at each
    pair."""
    spec = du.spectrum(dl)
    full = (1 << len(spec.primes)) - 1
    np_, nm = dl.plus.n, dl.minus.n
    if len(set(spec.phi_plus)) < np_ or len(set(spec.phi_minus)) < nm:
        raise InvariantViolation("spatiality clause (i): φ₊ or φ₋ is not injective on a d-lattice")
    for i in range(np_):
        for j in range(nm):
            p = dl.pid(i, j)
            if dl.in_con(p) != (spec.phi_plus[i] & spec.phi_minus[j] == 0):
                return False, f"clause (ii) fails at ideal pair ({i},{j})"
            if dl.in_tot(p) != (spec.phi_plus[i] | spec.phi_minus[j] == full):
                return False, f"clause (iii) fails at ideal pair ({i},{j})"
    return True, "spatial"


def test_spatiality_matches_pair_loop(bound5, corpus):
    _, valid = bound5
    clauses = {}
    for dl in valid + [A for A, _ in corpus]:
        want = spatiality_check_by_pairs(dl)
        assert du.spatiality_check(dl) == want
        clause = want[1].split(" fails")[0]
        clauses[clause] = clauses.get(clause, 0) + 1
    assert clauses == {"spatial": 2021 + 87, "clause (ii)": 130, "clause (iii)": 118}


def test_spatial_reflection_matches_the_opens(bound5, corpus):
    """sp(dl) against the opens it replaced, on every valid labeled Q2
    candidate at bounds 4 and 5 and on λ(birkhoff p), p ≤ 5: (D, C) are the
    disjoint and covering pairs of φ₊ × φ₋ from ``prime_pair_opens``; con ⊆
    D and tot ⊆ C; sp(dl) is a valid d-lattice with the same prime pairs, and
    its own reflection; and dl is spatial iff (con, tot) = (D, C).  Per
    input family: the valid d-lattices, those with con ≠ D, with tot ≠ C,
    with both, and the non-spatial ones."""
    families = {
        "bound 4": [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok],
        "bound 5": bound5[1],
        "corpus": [A for A, _ in corpus],
    }
    counts = {}
    for family, dls in families.items():
        con_differs = tot_differs = both = non_spatial = 0
        for dl in dls:
            sp = du.spatial_reflection(dl)
            pairs = prime_pairs(dl)
            every_prime = (1 << len(pairs)) - 1
            assert (sp.plus, sp.minus) == (dl.plus, dl.minus)
            assert (sp.con_mask, sp.tot_mask) == disjoint_and_covering(*prime_pair_opens(dl, pairs), every_prime)
            assert dl.con_mask & ~sp.con_mask == 0 and dl.tot_mask & ~sp.tot_mask == 0
            assert validate_dlattice(sp).ok and prime_pairs(sp) == pairs
            again = du.spatial_reflection(sp)
            assert (again.con_mask, again.tot_mask) == (sp.con_mask, sp.tot_mask)
            con_ne, tot_ne = dl.con_mask != sp.con_mask, dl.tot_mask != sp.tot_mask
            spatial = du.spatiality_check(dl)[0]
            assert spatial == (not con_ne and not tot_ne)
            con_differs += con_ne
            tot_differs += tot_ne
            both += con_ne and tot_ne
            non_spatial += not spatial
        counts[family] = (len(dls), con_differs, tot_differs, both, non_spatial)
    assert counts == {
        "bound 4": (135, 14, 14, 4, 24),
        "bound 5": (2269, 130, 130, 12, 248),
        "corpus": (87, 0, 0, 0, 0),
    }


def spatial_reflection_by_prime_pairs(dl):
    """Oracle: ``duality.spatial_reflection`` as it read its masks before,
    indexing the record's ``down_masks`` at each pair of a fresh
    ``prime_pairs`` list, with the clause (i) guard scanning the cover
    rows of each coordinate lattice for a meet-irreducible that is no
    side."""
    plus_rows, minus_cols = coordinate_tables(dl).down_masks
    disjoint = covering = (1 << dl.size) - 1
    plus_sides = minus_sides = 0
    for u, v in prime_pairs(dl):
        rows_u, cols_v = plus_rows[u][1], minus_cols[v][1]
        disjoint &= rows_u | cols_v
        covering &= ~(rows_u & cols_v)
        plus_sides |= 1 << u
        minus_sides |= 1 << v
    for sign, L, sides in (("₊", dl.plus, plus_sides), ("₋", dl.minus, minus_sides)):
        if any(row.bit_count() == 1 and not (sides >> m) & 1 for m, row in enumerate(L.cover_up)):
            raise InvariantViolation(f"spatiality clause (i): φ{sign} is not injective on a d-lattice")
    return DLattice(dl.plus, dl.minus, disjoint, covering)


def test_spatial_reflection_matches_the_prime_pair_scan(bound5, corpus, monkeypatch):
    """On every valid bound-5 candidate and every λ(birkhoff p), p ≤ 5,
    sp(dl) read from the masks of the covering scan equals the oracle's,
    and ``spatiality_check`` gives the (verdict, detail) it gives on the
    oracle's reflection.  With the last prime generator of either side
    dropped, both raise the clause (i) guard on the corpus."""
    _, valid = bound5
    inputs = valid + [A for A, _ in corpus]
    for dl in inputs:
        got, want = du.spatial_reflection(dl), spatial_reflection_by_prime_pairs(dl)
        assert (got.plus, got.minus, got.con_mask, got.tot_mask) == (want.plus, want.minus, want.con_mask, want.tot_mask)
    got = [du.spatiality_check(dl) for dl in inputs]
    with monkeypatch.context() as patched:
        patched.setattr(du, "spatial_reflection", spatial_reflection_by_prime_pairs)
        assert [du.spatiality_check(dl) for dl in inputs] == got
    assert (len(inputs), sum(not spatial for spatial, _ in got)) == (2269 + 87, 248)
    for side, sign in (("plus", "₊"), ("minus", "₋")):
        with monkeypatch.context() as patched:
            patched.setattr(CoordinateTables, "prime_masks", prime_masks_dropping_last(side))
            for A, _ in corpus:
                for reflection in (du.spatial_reflection, spatial_reflection_by_prime_pairs):
                    with pytest.raises(InvariantViolation, match=f"clause \\(i\\): φ{sign} is not injective"):
                        reflection(A)


def test_meet_irreducible_masks_match_prime_generators():
    """The meet-irreducible masks held on the record of each pair of
    coordinate lattices up to size 7 (20 lattices, 400 pairs) are the masks
    of ``prime_generators`` and of the numpy prime-ideal scan."""
    lattices = distributive_lattices(7)
    assert len(lattices) == 20
    generators = {id(L): mask_of(prime_generators(L)) for L in lattices}
    assert all(generators[id(L)] == mask_of(prime_ideals_numpy(L)) for L in lattices)
    for plus in lattices:
        for minus in lattices:
            tables = coordinate_tables(DLattice(plus, minus, 0, 0))
            assert tables.meet_irreducibles == (generators[id(plus)], generators[id(minus)])
            assert tables.meet_irreducibles is tables.meet_irreducibles


def test_every_coordinate_prime_extends_to_a_prime_d_ideal(bound5):
    """The lemma that makes spatiality clause (i) hold: on every valid
    d-lattice, each prime ideal ↓u of either coordinate lattice (generators
    from the numpy oracle) is a side of some pair of ``prime_pairs``, and so
    φ₊ and φ₋ of ``prime_pair_opens`` are order embeddings."""
    _, valid = bound5
    dls = valid + dbool_corpus(4)
    assert len(dls) == 2269 + 24
    for dl in dls:
        pairs = prime_pairs(dl)
        opens = prime_pair_opens(dl, pairs)
        for side, L, phi in zip((0, 1), (dl.plus, dl.minus), opens):
            assert set(prime_ideals_numpy(L)) <= {pair[side] for pair in pairs}
            for a in range(L.n):
                for b in range(L.n):
                    assert L.leq(a, b) == (phi[a] & ~phi[b] == 0)


# ---------------------------------------------------------------------------
# prime d-ideals


def test_prime_generators_match_prime_ideals():
    one = build_lattice(["0"], [[True]])
    lattices = [one] + distributive_lattices(5) + [birkhoff(p) for p in unlabeled_posets(5)]
    assert len(lattices) == 1 + 7 + 87
    for L in lattices:
        assert prime_generators(L) == prime_generators(FinitePoset.relabeled(L, L.labels)) == prime_ideals_numpy(L)


def primes_by_filter_validator(dl):
    """Oracle: every principal pair (↓u, ↓v), u and v not top, that passes
    the covering tests, kept when ``validate_d_filter_map`` passes."""
    out = []
    _, col0 = unit_masks(dl.plus.n, dl.minus.n)
    for u in range(dl.plus.n):
        if u == dl.plus.top:
            continue
        rows_u = covered_pairs(dl.plus.n, dl.minus.n, dl.plus.down[u], 0)
        for v in range(dl.minus.n):
            if v == dl.minus.top:
                continue
            cols_v = dl.minus.down[v] * col0
            if dl.con_mask & ~(rows_u | cols_v) or dl.tot_mask & rows_u & cols_v:
                continue
            candidate = ideal_map(dl, u, v)
            if validate_d_filter_map(dl, candidate).ok:
                out.append(candidate)
    return out


def test_primes_match_filter_validator_scan(bound5, corpus, monkeypatch):
    _, valid = bound5
    inputs = valid + [A for A, _ in corpus]
    want = [[g.values for g in primes_by_filter_validator(dl)] for dl in inputs]
    calls = 0

    def counting(dl, bmap):
        nonlocal calls
        calls += 1
        return validate_d_filter_map(dl, bmap)

    monkeypatch.setattr(ideals, "validate_d_filter_map", counting)
    got = [enumerate_prime_d_ideals(dl) for dl in inputs]
    assert calls == 0
    assert [[g.values for g in primes] for primes in got] == want
    assert all(type(g) is BMap and g.dlattice is dl for dl, primes in zip(inputs, got) for g in primes)
    assert sum(map(len, want)) > len(inputs)


# ---------------------------------------------------------------------------
# the record cache

TABLE_FIELDS = {
    "down_steps",
    "up_steps",
    "logic",
    "not_above",
    "down_masks",
    "up_masks",
    "prime_masks",
    "meet_irreducibles",
}
# the tables a table is built from
TABLE_READS = {"prime_masks": {"down_masks"}}


def test_row_keyed_cache_holds_every_carrier(corpus, monkeypatch):
    """The duality-corpus checks of each item, with the ``validate_dlattice``
    oracle of its algebra, fill each record they read once, from the one
    record cache keyed by the coordinate up rows, at carriers of every
    size; every table but ``up_masks`` (read by the d-filter map
    enumeration alone) is read from a cached record, and a repeat lookup
    returns the same record.  The d-Boolean algebras these checks build
    pass ``validate_dboolean`` by their pairing, which reads no record, so
    the cover steps, logic and con–tot tables are read by the oracle call.
    The cache is replaced by an equal one whose fills are recorded."""
    filled = []
    fresh_record_cache(monkeypatch, filled)
    sizes, fields = set(), set()
    for A, X in corpus:
        filled.clear()
        assert du.unit_roundtrip(A).is_iso and du.counit_roundtrip(X).is_iso
        assert du.spatiality_check(A)[0] and du.dspec_equals_dpt_idl(A)
        assert du.complete_extremally_disconnected_check(X)
        assert validate_dlattice(A).ok
        keys = [t.key for t in filled]
        assert keys and len(set(keys)) == len(keys)
        sizes.update(len(plus_up) * len(minus_up) for plus_up, minus_up in keys)
        fields.update(*(vars(t) for t in filled))
        assert coordinate_tables(A) is coordinate_tables(A)
    assert min(sizes) <= 64 and max(sizes) == max(A.size for A, _ in corpus) > 64
    assert TABLE_FIELDS & fields == TABLE_FIELDS - {"up_masks"}


def test_first_read_builds_only_that_table(corpus):
    """Reading one table of a new record builds that table and the tables
    it is built from, and nothing else, on the largest corpus carrier."""
    A = max((A for A, _ in corpus), key=lambda A: A.size)
    assert A.size > 64
    for field in sorted(TABLE_FIELDS):
        tables = CoordinateTables(A.plus, A.minus)
        assert TABLE_FIELDS & set(vars(tables)) == set()
        getattr(tables, field)
        assert TABLE_FIELDS & set(vars(tables)) == {field} | TABLE_READS.get(field, set())


def test_validate_dlattice_looks_up_one_record(bound5, monkeypatch):
    """Each ``validate_dlattice`` call, whatever clause fails, reads its
    lattice pair's entry, record and reports together, exactly once
    (``_pair_entry``, through which ``coordinate_tables`` reads too)."""
    valid = bound5[1][:200]
    inputs = _q2_candidates(3) + valid + [m for dl in valid for m in _single_bit_mutants(dl)]
    inputs += down_up_pairs(build_lattice(list("0xy1"), DIAMOND), build_lattice(list("0m1"), CHAIN3))
    two = build_lattice(["0", "1"], [[True, True], [False, True]])
    one = build_lattice(["0"], [[True]])
    inputs += [DLattice(one, two, 0b11, 0b11)]
    lookups = 0
    genuine = dlattice_module._pair_entry

    def counting(dl):
        nonlocal lookups
        lookups += 1
        return genuine(dl)

    monkeypatch.setattr(dlattice_module, "_pair_entry", counting)
    axioms = set()
    for calls, dl in enumerate(inputs, start=1):
        axioms.add(validate_dlattice(dl).axiom)
        assert lookups == calls
    assert axioms == {
        None,
        "degenerate-pair",
        "con-tt-ff",
        "tot-tt-ff",
        "con-scott-closed",
        "tot-upper-set",
        "con-logic-sublattice",
        "tot-logic-sublattice",
        "con-tot",
    }


def test_each_report_is_built_once_per_cause_on_a_lattice_pair(bound5, monkeypatch):
    """From an empty record cache, validating every Q2 candidate builds one
    failed report per distinct cause on each lattice pair: 143 for the
    1,517 failures at bound 4 and 786 for the 37,175 at bound 5.  Every
    report, shared or not, equals the oracle's."""
    genuine = StructReport.failed
    built = 0

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return genuine(*args, **kwargs)

    for candidates, want in ((_q2_candidates(4), (1517, 143)), (bound5[0], (37175, 786))):
        fresh_record_cache(monkeypatch)
        built = 0
        with monkeypatch.context() as patched:
            patched.setattr(StructReport, "failed", staticmethod(counting))
            reports = [validate_dlattice(dl) for dl in candidates]
        assert (sum(not report.ok for report in reports), built) == want
        for dl, report in zip(candidates, reports):
            assert report == validate_dlattice_by_rows(dl)


def test_side_verdicts_fill_once_per_record_side_and_mask(bound5, monkeypatch):
    """The Q2 census at bound 5 reads 49 records and decides 1,078 con and
    1,078 tot masks, each once, kept in the record's con and tot dicts by
    mask; a second pass decides nothing new."""
    filled = []
    fresh_record_cache(monkeypatch, filled)
    genuine = dlattice_module._side_verdict
    decided = {"con": 0, "tot": 0}

    def counting(dl, tables, name, mask):
        decided[name] += 1
        return genuine(dl, tables, name, mask)

    monkeypatch.setattr(dlattice_module, "_side_verdict", counting)
    candidates = bound5[0]
    for dl in candidates:
        validate_dlattice(dl)
    kept = [(dict(tables.con_verdicts), dict(tables.tot_verdicts)) for tables in filled]
    assert len(filled) == 49
    assert [sum(map(len, side)) for side in zip(*kept)] == [1078, 1078]
    assert decided == {"con": 1078, "tot": 1078}
    for dl in candidates:
        validate_dlattice(dl)
    assert decided == {"con": 1078, "tot": 1078}
    assert len(filled) == 49 and [(tables.con_verdicts, tables.tot_verdicts) for tables in filled] == kept


# ---------------------------------------------------------------------------
# the prime grid


def test_prime_grid_witnesses_are_the_least_elements_outside_the_primes():
    """On every pair of coordinate lattices up to size 7 (20 lattices, 400
    pairs), the prime grid pairs each prime generator u of the numpy oracle,
    on either side, with a witness c such that ↑c is the complement of ↓u,
    and c is join-irreducible (one lower cover)."""
    lattices = distributive_lattices(7)
    assert len(lattices) == 20
    for plus in lattices:
        for minus in lattices:
            tables = coordinate_tables(DLattice(plus, minus, 0, 0))
            assert len(tables.prime_cells(0, 0)) == len(prime_generators(plus)) * len(prime_generators(minus))
            witness = ({}, {})
            for w, t, _ in tables.prime_grid[1]:
                for side, c, u in zip((0, 1), divmod(w, minus.n), divmod(t, minus.n)):
                    witness[side].setdefault(u, c)
            for side, L in zip((0, 1), (plus, minus)):
                assert sorted(witness[side]) == prime_ideals_numpy(L)
                for u, c in witness[side].items():
                    assert L.up[c] == ((1 << L.n) - 1) & ~L.down[u]
                    assert L.cover_down[c].bit_count() == 1


def prime_cells_by_scan(dl):
    """Oracle: the cells the record's prime grid picks for dl, as the
    covering scan over ``prime_masks`` picked them before: each pair (u, v)
    of prime generators, u outer, whose (↓u, ↓v) covers con and avoids
    tot, with the union and intersection of its two covered masks."""
    plus, minus = coordinate_tables(dl).prime_masks
    return [
        (u, v, rows_u | cols_v, rows_u & cols_v)
        for u, rows_u in plus
        for v, cols_v in minus
        if not dl.con_mask & ~(rows_u | cols_v) and not dl.tot_mask & rows_u & cols_v
    ]


def selected_cells(dl):
    return coordinate_tables(dl).prime_cells(dl.con_mask, dl.tot_mask)


def test_prime_cells_match_the_covering_scan(bound5):
    """On all 39,444 bound-5 candidates, valid or not, and on the 87 algebras
    of ``dbool_corpus(5)``, the prime grid picks the cells of the covering
    scan, in its order, and ``prime_pairs`` reads their (u, v)."""
    candidates = bound5[0]
    dbools = dbool_corpus(5)
    assert (len(candidates), len(dbools)) == (39444, 87)
    picked = 0
    for dl in candidates + dbools:
        want = prime_cells_by_scan(dl)
        assert selected_cells(dl) == want
        assert prime_pairs(dl) == [(u, v) for u, v, _, _ in want]
        picked += len(want)
    assert picked > len(candidates)


def test_spatial_reflection_on_a_bound_6_sample():
    """Every valid bound-6 d-lattice gives 4,982 non-spatial ones of 45,310,
    and on 3,000 of them drawn with a fixed seed the spatial reflection, the
    verdict and the prime pairs equal those of the prime-pair scan."""
    valid = [dl for dl, _ in du._q2_dlattices(6)]
    assert (len(valid), sum(not du.spatiality_check(dl)[0] for dl in valid)) == (45310, 4982)
    for dl in random.Random(35).sample(valid, 3000):
        got, want = du.spatial_reflection(dl), spatial_reflection_by_prime_pairs(dl)
        assert (got.con_mask, got.tot_mask) == (want.con_mask, want.tot_mask)
        assert selected_cells(dl) == prime_cells_by_scan(dl)


def test_spatiality_is_genuine_again_once_a_stand_in_prime_table_is_undone(bound5, corpus, monkeypatch):
    """With every prime grid emptied and the last prime generator of either
    side dropped from ``prime_masks``, ``spatiality_check`` raises the
    clause (i) guard on every valid bound-5 candidate and corpus algebra;
    once the stand-in is undone it returns the genuine verdicts again, as
    each record's grid is rebuilt from the genuine table."""
    inputs = bound5[1] + [A for A, _ in corpus]
    want = [du.spatiality_check(dl) for dl in inputs]
    for side, sign in (("plus", "₊"), ("minus", "₋")):
        for dl in inputs:
            coordinate_tables(dl).prime_grid = None
        with monkeypatch.context() as patched:
            patched.setattr(CoordinateTables, "prime_masks", prime_masks_dropping_last(side))
            for dl in inputs:
                with pytest.raises(InvariantViolation, match=f"clause \\(i\\): φ{sign} is not injective"):
                    du.spatiality_check(dl)
        assert [du.spatiality_check(dl) for dl in inputs] == want
