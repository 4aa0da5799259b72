"""The int scans of the hom validators and the order-row prime ideals
against the numpy forms they replaced, kept here as test-only references:
``lattice.prime_generators`` with a meet scan per generator, the table form of
``validate_lattice_hom``, the |P|²·|M|² form of ``validate_carrier_hom`` and
the quadruple scan of ``ideals._first_unpreserved``.  Inputs are the default
bundle (whose d-Boolean algebras are ``dbool_corpus(4)``), the homs between
its small d-lattices and one-value perturbations of them.  Also the number
of lattice homs against a count that shares no code with their
enumeration: Birkhoff duality's monotone maps between the posets of
join-irreducibles.  And the hom enumeration itself, which reads the homs
off those monotone maps, against the table backtracking it replaced: its
1,153 pairs hold every pair of ``birkhoff_corpus(4)``, so it is the
enumeration's one order-exact oracle."""

import random
from itertools import product
from operator import and_, or_

import numpy as np
import pytest
from test_dlattice import pair_join, pair_meet
from test_lattice_oracles import first_index

from bistone import ideals
from bistone.corpus import birkhoff_corpus, chain
from bistone.dlattice import DLatticeHom, bool_dlattice, enumerate_dlattice_homs, validate_carrier_hom
from bistone.ideals import B0, B1, BFF, BTT, BMap, enumerate_prime_d_ideals
from bistone.lattice import (
    LatticeHom,
    bits,
    enumerate_lattice_homs,
    join_irreducibles,
    prime_generators,
    validate_lattice_hom,
)
from bistone.report import StructReport
from bistone.suites import all_dlattices


def prime_ideals_numpy(lattice):
    """Reference: each non-top a, ascending, kept when no meet of two
    elements outside ↓a lies in ↓a (a numpy scan over the meet table)."""
    out = []
    meet, down = np.asarray(lattice.meet), lattice.down
    n = lattice.n
    for a in range(n):
        if a == lattice.top:
            continue
        below = np.array([(down[a] >> k) & 1 for k in range(n)], dtype=bool)
        in_ideal = below[meet]
        covered = below[:, None] | below[None, :]
        if not (in_ideal & ~covered).any():
            out.append(a)
    return out


def validate_lattice_hom_numpy(hom):
    """Reference: both whole tables compared at once, first (a, b) in
    row-major order."""
    L, M, f = hom.source, hom.target, np.asarray(hom.mapping, dtype=np.int16)
    if len(f) != L.n:
        return StructReport.failed("total", message="mapping is not total")
    for name, a, b in (("bottom", L.bot, M.bot), ("top", L.top, M.top)):
        if int(f[a]) != b:
            return StructReport.failed(name, witness=int(f[a]))
    for name in ("meet", "join"):
        op_L, op_M = np.asarray(getattr(L, name)), np.asarray(getattr(M, name))
        bad = first_index(f[op_L] != op_M[f[:, None], f[None, :]])
        if bad is not None:
            return StructReport.failed(name, witness=bad)
    return StructReport.passed()


def validate_carrier_hom_numpy(src, tgt, values):
    """Reference: meet and join compared on all pairs of pairs at once."""
    values = np.asarray(values, dtype=np.int32)
    for name, p, q in (("tt", src.tt, tgt.tt), ("ff", src.ff, tgt.ff)):
        if int(values[p]) != q:
            return StructReport.failed(name, witness=int(values[p]))
    V = values.reshape(src.plus.n, src.minus.n)
    A, B = V // tgt.minus.n, V % tgt.minus.n
    A1, A2 = A[:, None, :, None], A[None, :, None, :]
    B1, B2 = B[:, None, :, None], B[None, :, None, :]
    for name in ("meet", "join"):
        sp, sm, tp, tm = (np.asarray(getattr(L, name)) for L in (src.plus, src.minus, tgt.plus, tgt.minus))
        bad = first_index(V[sp][:, :, sm] != tp[A1, A2] * tgt.minus.n + tm[B1, B2])
        if bad is not None:
            a, a2, b, b2 = bad
            return StructReport.failed(name, witness=(src.pid(a, b), src.pid(a2, b2)))
    for name, src_mask, tgt_mask in (("con", src.con_mask, tgt.con_mask), ("tot", src.tot_mask, tgt.tot_mask)):
        for p in bits(src_mask):
            if not (tgt_mask >> int(values[p])) & 1:
                return StructReport.failed(name, witness=src.pair_label(p))
    return StructReport.passed()


def first_unpreserved_numpy(dl, bmap, op, combine):
    """Reference: the numpy quadruple scan over the values as a matrix."""
    V = np.asarray(bmap.values, dtype=np.uint8).reshape(dl.plus.n, dl.minus.n)
    lhs = V[np.asarray(getattr(dl.plus, op))][:, :, np.asarray(getattr(dl.minus, op))]
    bad = first_index(lhs != combine(V[:, None, :, None], V[None, :, None, :]))
    if bad is None:
        return None
    a, a2, b, b2 = bad
    return StructReport.failed(
        f"{op}-preservation",
        witness=(dl.pair_label(dl.pid(a, b)), dl.pair_label(dl.pid(a2, b2))),
    )


def one_value_changes(values, n_targets, rng, per_map):
    """Up to ``per_map`` copies of values, each with one position moved to
    another target value, drawn from ``rng``."""
    values = list(values)
    changes = [(p, v) for p in range(len(values)) for v in range(n_targets) if v != values[p]]
    for p, v in rng.sample(changes, min(per_map, len(changes))):
        out = values.copy()
        out[p] = v
        yield tuple(out)


def coordinate_lattices(bundle):
    """The bundle's lattices and the coordinates of its d-lattices, each
    order once."""
    seen, out = set(), []
    for L in bundle.lattices + [L for dl in all_dlattices(bundle) for L in (dl.plus, dl.minus)]:
        if L.up not in seen:
            seen.add(L.up)
            out.append(L)
    return out


def test_prime_ideals_match_numpy_scan(bundle):
    lattices = coordinate_lattices(bundle)
    total = 0
    for L in lattices:
        assert prime_generators(L) == prime_ideals_numpy(L)
        total += len(prime_generators(L))
    assert len(lattices) > 30 and total > 100


def test_validate_lattice_hom_matches_numpy_scan(bundle):
    rng = random.Random(7)
    small = [L for L in coordinate_lattices(bundle) if L.n <= 6]
    fired, total = {}, 0
    for L in small:
        for M in small:
            homs = [h.mapping for h in enumerate_lattice_homs(L, M)]
            maps = homs[:4] + [m for h in homs[:4] for m in one_value_changes(h, M.n, rng, 6)]
            maps += [tuple(rng.randrange(M.n) for _ in range(L.n)) for _ in range(3)]
            for mapping in maps:
                hom = LatticeHom(L, M, mapping)
                want = validate_lattice_hom_numpy(hom)
                assert validate_lattice_hom(hom) == want, (L.labels, M.labels, mapping)
                fired[want.axiom] = fired.get(want.axiom, 0) + 1
                total += 1
    assert set(fired) == {None, "bottom", "top", "meet", "join"}
    assert total > 2000


def breaks_named_clause(src, tgt, values, report):
    """Whether the pair (or pair of pairs) a failed report names breaks the
    clause it names."""
    axiom, w = report.axiom, report.witness
    if axiom in ("tt", "ff"):
        p, q = (src.tt, tgt.tt) if axiom == "tt" else (src.ff, tgt.ff)
        return values[p] != q and w == values[p]
    if axiom in ("meet", "join"):
        p, q = w
        op = pair_meet if axiom == "meet" else pair_join
        return values[op(src, p, q)] != op(tgt, values[p], values[q])
    p = src.pid(src.plus.labels.index(w[0]), src.minus.labels.index(w[1]))
    src_mask, tgt_mask = (src.con_mask, tgt.con_mask) if axiom == "con" else (src.tot_mask, tgt.tot_mask)
    return (src_mask >> p) & 1 and not (tgt_mask >> values[p]) & 1


def carrier_maps(bundle, rng):
    """(src, tgt, values): the carrier maps of the homs between the small
    d-lattices of the bundle and of products of component lattice homs (which
    may drop con or tot), the prime d-ideals of every d-lattice of the bundle
    as maps into the four-element object, and one-value changes of both."""
    B = bool_dlattice()
    small = [dl for dl in all_dlattices(bundle) if dl.size <= 16]
    for src in small:
        for tgt in small:
            products = [
                DLatticeHom(src, tgt, fp.mapping, fm.mapping)
                for fp in enumerate_lattice_homs(src.plus, tgt.plus)[:2]
                for fm in enumerate_lattice_homs(src.minus, tgt.minus)[:2]
            ]
            for hom in enumerate_dlattice_homs(src, tgt)[:3] + products:
                values = tuple(hom.apply(p) for p in range(src.size))
                yield src, tgt, values
                for changed in one_value_changes(values, tgt.size, rng, 8):
                    yield src, tgt, changed
    for dl in all_dlattices(bundle):
        for g in enumerate_prime_d_ideals(dl)[:3]:
            values = tuple(ideals.b_to_bool_pid(v) for v in g.values)
            yield dl, B, values
            for changed in one_value_changes(values, B.size, rng, 8):
                yield dl, B, changed
        for _ in range(3):
            yield dl, B, tuple(rng.randrange(B.size) for _ in range(dl.size))


def test_validate_carrier_hom_matches_numpy_form(bundle):
    rng = random.Random(11)
    fired, total = {}, 0
    for src, tgt, values in carrier_maps(bundle, rng):
        got = validate_carrier_hom(src, tgt, values)
        want = validate_carrier_hom_numpy(src, tgt, values)
        assert got.ok == want.ok, (values, got, want)
        if not got.ok:
            assert breaks_named_clause(src, tgt, values, got), (values, got)
        fired[got.axiom] = fired.get(got.axiom, 0) + 1
        total += 1
    assert set(fired) == {None, "tt", "ff", "meet", "join", "con", "tot"}, fired
    assert total > 3000


@pytest.mark.parametrize("op, combine", [("join", or_), ("meet", and_)])
def test_first_unpreserved_matches_numpy_scan(bundle, op, combine):
    rng = random.Random(5)
    fired, total = {}, 0
    for dl in all_dlattices(bundle):
        per_map = 1 if dl.size > 64 else 4
        maps = [g.values for g in enumerate_prime_d_ideals(dl)[:2]]
        maps += [m for g in list(maps) for m in one_value_changes(g, 4, rng, per_map)]
        maps.append(tuple(rng.choice((B0, BTT, BFF, B1)) for _ in range(dl.size)))
        for values in maps:
            bmap = BMap(dl, values)
            want = first_unpreserved_numpy(dl, bmap, op, np.bitwise_or if op == "join" else np.bitwise_and)
            assert ideals._first_unpreserved(dl, bmap, op, combine) == want
            fired[want is None] = fired.get(want is None, 0) + 1
            total += 1
    assert fired[True] > 20 and fired[False] > 20 and total > 100


def enumerate_lattice_homs_backtracking(L, M):
    """Reference: all bound-preserving lattice homomorphisms L → M, in
    lexicographic order of their values along a linear extension of L.

    Backtracking over a linear extension of L, so every element strictly
    below the next one, a, is placed and nothing above it is.  The
    candidates for f(a) form one bitmask: for each placed a2 the b with
    b ∧ f(a2) = f(a ∧ a2) (for a2 ≤ a this reads f(a2) ≤ b), and f(x) ∨ f(y)
    for each pair of placed x, y with join a.  They are tried lowest first.
    """
    order = L.poset.linear_extension()
    meet_is = [[0] * M.n for _ in range(M.n)]  # meet_is[b2][t]: the b with b ∧ b2 = t
    for b, row in enumerate(M.meet):
        for b2, t in enumerate(row):
            meet_is[b2][t] |= 1 << b
    join_checks = [[] for _ in range(L.n)]  # pairs whose join is this element
    for x in range(L.n):
        for y in range(x, L.n):
            j = L.join[x][y]
            if j != x and j != y:
                join_checks[j].append((x, y))
    everything = (1 << M.n) - 1
    mapping = [-1] * L.n
    out = []

    def backtrack(k):
        if k == L.n:
            hom = LatticeHom(L, M, tuple(mapping))
            if validate_lattice_hom(hom).ok:
                out.append(hom)
            return
        a = order[k]
        if a == L.bot:
            cand = 1 << M.bot
        elif a == L.top:
            cand = 1 << M.top
        else:
            cand = everything
        meets = L.meet[a]
        for a2 in order[:k]:
            cand &= meet_is[mapping[a2]][mapping[meets[a2]]]
        for x, y in join_checks[a]:
            cand &= 1 << M.join[mapping[x]][mapping[y]]
        for b in bits(cand):
            mapping[a] = b
            backtrack(k + 1)
        mapping[a] = -1

    backtrack(0)
    return out


def test_lattice_homs_match_table_backtracking():
    """The same homs in the same order as the backtracking on the 576 pairs
    of ``birkhoff_corpus(4)``, the 484 pairs of the duals of its 22
    lattices under 12 elements and the pairs of the one-element chain with
    all of these.  A dual's ids run from the top down, so they do not
    follow a linear extension: on 393 of these pairs the homs in
    linear-extension order are not in id order."""
    lattices = birkhoff_corpus(4)
    duals = [L.dual() for L in lattices if L.n < 12]
    trivial = chain(1)
    pairs = list(product(lattices, repeat=2)) + list(product(duals, repeat=2))
    pairs += [(trivial, L) for L in lattices + duals] + [(L, trivial) for L in lattices + duals + [trivial]]
    total = out_of_id_order = 0
    for L, M in pairs:
        homs = [h.mapping for h in enumerate_lattice_homs(L, M)]
        assert homs == [h.mapping for h in enumerate_lattice_homs_backtracking(L, M)], (L.labels, M.labels)
        total += len(homs)
        out_of_id_order += homs != sorted(homs)
    assert (len(pairs), total, out_of_id_order) == (1153, 32289, 393)


def monotone_map_count(P, Q, leq_p, leq_q):
    """Brute force: the maps from the list P to the list Q, each as a tuple
    of images, with x ≤ y in P giving f(x) ≤ f(y) in Q."""
    return sum(
        all(leq_q(fx, fy) for x, fx in zip(P, f) for y, fy in zip(P, f) if leq_p(x, y))
        for f in product(Q, repeat=len(P))
    )


def test_lattice_hom_counts_match_monotone_maps_of_join_irreducibles():
    """By Birkhoff duality, the bound-preserving homs L → M of finite
    distributive lattices correspond one to one to the monotone maps
    J(M) → J(L) between their posets of join-irreducibles.  The brute count
    of the latter equals ``len(enumerate_lattice_homs(L, M))`` on each of
    the 576 ordered pairs of ``birkhoff_corpus(4)``, 19,702 homs in all, so
    a hom the enumerator drops anywhere shows here."""
    lattices = birkhoff_corpus(4)
    total = 0
    for L, M in product(lattices, repeat=2):
        homs = len(enumerate_lattice_homs(L, M))
        assert homs == monotone_map_count(join_irreducibles(M), join_irreducibles(L), M.leq, L.leq)
        total += homs
    assert (len(lattices) ** 2, total) == (576, 19702)
