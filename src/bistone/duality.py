"""The spectrum construction, round-trip isomorphism checks, the equivalence
with distributive lattices, classical compatibility squares, and finite
counterexample searches for the two open questions.

Isomorphisms are always witnessed by explicit mutually inverse morphisms;
"no counterexample" reports always carry their search bounds and are never
read as theorems.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .bitop import (
    BiTopSpace,
    dclop_algebra,
    connected_subsets_are_singletons,
    generate_topology,
    is_compact,
    is_extremally_disconnected,
    is_homeomorphism,
    is_stone,
    is_T0,
    is_zero_dimensional,
    omega_space,
    point_d_point,
)
from .dlattice import (
    DLattice,
    DLatticeHom,
    canonical_lambda_iso,
    coordinate_tables,
    enumerate_dlattice_homs,
    find_dlattice_iso,
    lambda_of_dislat,
    logic_closed_on,
    omega_of_lattice,
    step,
    validate_dlattice,
    validate_dlattice_hom,
)
from .corpus import distributive_lattices as _distributive_lattices_upto
from .errors import (
    BoundsTooLarge,
    InvariantViolation,
    NotStone,
    NotZeroDimensional,
)
from .ideals import ideal_map, prime_pair_opens, prime_pairs
from .lattice import (
    bits,
    classical_spec,
    closed_sets,
    enumerate_lattice_homs,
    inverse_permutation,
    lattice_from_family,
    low_bit,
    transitive_relations,
)


@dataclass(frozen=True)
class Spectrum:
    """dSpec with the generating opens kept for the duality maps."""

    space: BiTopSpace
    primes: tuple
    phi_plus: tuple   # per plus element, a bitmask over prime indices
    phi_minus: tuple


def spectrum(dl):
    """Prime d-ideals topologized by the value-tt / value-ff sets: the
    primes in order of their values, with the opens read from their
    generators (``ideals.prime_pair_opens``).

    Built once per d-lattice: the result is held on dl (``held_spectrum``,
    sound as a ``DLattice`` is immutable), and a repeat call returns the
    same object."""
    held = getattr(dl, "held_spectrum", None)
    if held is not None:
        return held
    ranked = sorted(((ideal_map(dl, *pair), pair) for pair in prime_pairs(dl)), key=lambda prime: prime[0].values)
    primes = [g for g, _ in ranked]
    phi_plus, phi_minus = prime_pair_opens(dl, [pair for _, pair in ranked])
    n = len(primes)
    space = BiTopSpace(
        [f"g{k}" for k in range(n)],
        generate_topology(n, phi_plus),
        generate_topology(n, phi_minus),
    )
    spec = Spectrum(space, tuple(primes), phi_plus, phi_minus)
    object.__setattr__(dl, "held_spectrum", spec)
    return spec


def dspec(dl):
    return spectrum(dl).space


@dataclass(frozen=True)
class DualityWitness:
    verdict: str  # "ISO" | "NOT_ISO"
    forward: object
    backward: object
    detail: str = ""

    @property
    def is_iso(self):
        return self.verdict == "ISO"

    def to_json(self):
        def encode(m):
            if m is None:
                return None
            if isinstance(m, DLatticeHom):
                return {"fplus": list(m.fplus), "fminus": list(m.fminus)}
            return {"points": list(m)}

        return {
            "kind": "duality-witness",
            "version": 1,
            "verdict": self.verdict,
            "forward": encode(self.forward),
            "backward": encode(self.backward),
            "detail": self.detail,
        }


def unit_roundtrip(A):
    """Explicit isomorphism A ≅ dClop(dSpec A) via a ↦ φ₊(a), b ↦ φ₋(b)."""
    spec = spectrum(A)
    C = dclop_algebra(spec.space)
    sides = []
    for sign, L, phi, D in (("+", A.plus, spec.phi_plus, C.plus), ("-", A.minus, spec.phi_minus, C.minus)):
        index = {s: i for i, s in enumerate(D.sets)}
        for x in range(L.n):
            if phi[x] not in index:
                return DualityWitness("NOT_ISO", None, None, f"phi{sign}({L.labels[x]}) is not d-clopen")
        sides.append([index[s] for s in phi])
    fplus, fminus = sides
    if sorted(fplus) != list(range(C.plus.n)) or sorted(fminus) != list(range(C.minus.n)):
        return DualityWitness("NOT_ISO", None, None, "phi is not bijective onto the d-clopens")
    forward = DLatticeHom(A, C, tuple(fplus), tuple(fminus))
    rep = validate_dlattice_hom(forward)
    if not rep.ok:
        return DualityWitness("NOT_ISO", forward, None, f"phi not a hom: {rep.message}")
    backward = DLatticeHom(C, A, inverse_permutation(fplus), inverse_permutation(fminus))
    rep = validate_dlattice_hom(backward)
    if not rep.ok:
        return DualityWitness("NOT_ISO", forward, backward, f"inverse not a hom: {rep.message}")
    return DualityWitness("ISO", forward, backward, "unit round-trip")


def point_map_into_spectrum(X, A, spec):
    """x ↦ [x]: membership values on the d-clopen algebra of X."""
    prime_index = {g.values: k for k, g in enumerate(spec.primes)}
    mapping = tuple(prime_index.get(p.values) for p in point_d_point(X, A))
    if None in mapping:
        return None, mapping.index(None)
    return mapping, None


def counit_roundtrip(X):
    """Witnessed homeomorphism X ≅ dSpec(dClop X) via x ↦ [x]."""
    if not is_stone(X):
        raise NotStone("counit round-trip requires a Stone bitopological space")
    A = dclop_algebra(X)
    spec = spectrum(A)
    mapping, bad = point_map_into_spectrum(X, A, spec)
    if mapping is None:
        return DualityWitness("NOT_ISO", None, None, f"[{X.labels[bad]}] is not a prime d-ideal")
    if sorted(mapping) != list(range(spec.space.n)):
        return DualityWitness("NOT_ISO", mapping, None, "x ↦ [x] is not bijective")
    if not is_homeomorphism(mapping, X, spec.space):
        return DualityWitness("NOT_ISO", mapping, None, "x ↦ [x] is not a homeomorphism")
    return DualityWitness("ISO", mapping, inverse_permutation(mapping), "counit round-trip")


def dspec_equals_dpt_idl(dl):
    """dSpec is the d-point space of the ideal frame, matched by composing
    d-points with the principal-ideal embedding.

    The d-points of ``idl_dframe(dl)`` are the primes of ``dl`` itself, so
    one enumeration serves both sides.  The ideal frame shares dl's bounds,
    order rows, meet/join tables and con/tot masks and differs only in its
    labels (see ``ideals.idl_dframe``), and ``enumerate_prime_d_ideals``
    reads no labels, so it returns the same value tuples in the same order
    for both.  η is the identity on indices (a ↦ ↓a), so p ∘ η has the
    values of p, and the d-points with their value-tt / value-ff sets are
    ``spec.primes`` with ``spec.phi_plus`` / ``spec.phi_minus``.  What can
    still fail is that those families are topologies: dSpec carries the
    topologies they generate, which contain them, so each family must
    already equal its side of dSpec.  The spectrum read is the one held on
    dl, so after ``unit_roundtrip(dl)`` no prime is enumerated again."""
    spec = spectrum(dl)
    return all(frozenset(phi) == opens for phi, opens in zip((spec.phi_plus, spec.phi_minus), spec.space.open_sets))


def spatial_reflection(dl):
    """sp(dl) = (plus, minus, D, C): dl's coordinate lattices with, as con,
    the pairs whose opens φ₊(a), φ₋(b) over the primes are disjoint and, as
    tot, those whose opens cover every prime, built with no opens from the
    prime cells behind ``prime_pairs`` (``CoordinateTables.prime_cells``,
    two witness bits per cell), read through the record this call holds:
    each prime pair (u_k, v_k) comes with R_k | K_k and R_k & K_k.  The
    masks are proved, and the clause (i) guard below is justified, in
    ``spatiality_check``.

    On a valid dl, con ⊆ D and tot ⊆ C: the prime d-ideal g_k is a hom into
    the four-element object (``dlattice.bool_dlattice``), whose con lacks 1
    and whose tot lacks 0, and g_k(a, b) is 1 iff a ≰ u_k and b ≰ v_k, and
    0 iff a ≤ u_k and b ≤ v_k.  So sp(dl) has the prime pairs of dl, in
    order: each (u_k, v_k) covers D ⊆ R_k | K_k and avoids C ⊆ ~(R_k & K_k),
    and a pair that covers D ⊇ con and avoids C ⊇ tot is one of dl's; hence
    sp(sp(dl)) = sp(dl).  sp(dl) is valid: φ₊ and φ₋ are lattice embeddings
    into the spectrum's topologies (a ∧ a′ ≰ u_k iff neither is below u_k,
    as ↓u_k is prime; a ∨ a′ ≰ u_k iff one is not), and D and C are the
    preimages under them of con and tot of dO of the spectrum
    (``bitop.dO``), whose axioms pull back along lattice embeddings."""
    tables = coordinate_tables(dl)
    disjoint = covering = (1 << dl.size) - 1
    plus_sides = minus_sides = 0
    for u, v, union, shared in tables.prime_cells(dl.con_mask, dl.tot_mask):
        disjoint &= union
        covering &= ~shared
        plus_sides |= 1 << u
        minus_sides |= 1 << v
    for sign, irreducible, sides in zip("₊₋", tables.meet_irreducibles, (plus_sides, minus_sides)):
        if irreducible & ~sides:
            raise InvariantViolation(f"spatiality clause (i): φ{sign} is not injective on a d-lattice")
    return DLattice(dl.plus, dl.minus, disjoint, covering)


def spatiality_check(dl):
    """The three spatiality clauses of the ideal frame against the spectrum,
    read off the spatial reflection sp(dl) = (plus, minus, D, C).

    (i) prime d-ideals separate distinct ideal pairs, (ii) consistency of an
    ideal pair is empty intersection of its opens, (iii) totality is covering.

    The opens are φ₊(a) = {k : a ≰ u_k} and φ₋(b) = {k : b ≰ v_k} over the
    generators (u_k, v_k) of ``prime_pairs`` (``ideals.prime_pair_opens``).
    Let R_k hold the pairs (a, b) with a ≤ u_k and K_k those with b ≤ v_k
    (``CoordinateTables.down_masks``).  Then D = AND_k (R_k | K_k), as
    φ₊(a) ∩ φ₋(b) is empty iff a ≤ u_k or b ≤ v_k for every k; and C is
    the carrier ANDed with every ~(R_k & K_k), as φ₊(a) ∪ φ₋(b) holds every
    k iff never both a ≤ u_k and b ≤ v_k.  Both are meets over the primes,
    so their order does not matter.

    On a valid d-lattice, (↓i, ↓j) is consistent / total iff (i, j) is (see
    ``ideals.idl_dframe``), so (ii) and (iii) compare con with D and tot
    with C by XOR; the lowest differing pair id is named, (ii) before (iii)
    there, as a scan of the pairs in row-major order names it.

    Clause (i) holds on every valid d-lattice.  Distinct ideal pairs with
    equal opens exist iff φ₊ or φ₋ is not injective, and φ is injective iff
    every meet-irreducible element (one upper cover; the prime generators,
    see ``lattice.prime_generators``) is a side u_k.  If a meet-irreducible
    m with upper cover m* is no side, then for every side u, m ≤ u ⇔
    m* ≤ u, because m ≤ u and m* ≰ u give u ∧ m* = m, which forces u = m;
    so φ(m) = φ(m*).  Conversely, let every meet-irreducible be a side.
    Every element a′ is the meet of the meet-irreducibles above it, so
    a ≰ a′ puts some u_k above a′ and not above a, and k in φ(a) ∖ φ(a′):
    φ is an order embedding.

    Every prime ideal ↓u of the plus lattice is the plus side of a pair
    (u, v) of ``prime_pairs``.  Let c be the least element outside ↓u.  The
    b with (c, b) in con are the ↓y of a largest member y: (c, ⊥) is in
    con, below tt, and con is a down-set closed under logic meet, which
    joins the minus coordinates.  Dually, the b with (u, b) in tot, if
    there are any, are the ↑t of a least member t, as tot is an up-set
    closed under logic join.  If t ≤ y, then (u, y) is in tot and (c, y) in
    con; they share y, so con–tot gives c ≤ u, which is false.  In the same way y ≠ ⊤, by comparing (c, ⊤) with ff.
    So some prime ideal ↓v contains y and, if t exists, misses it.  Then
    c(v) ≰ y and t ≰ v, so (u, v) is in ``prime_pairs`` by the lemma of
    ``CoordinateTables.prime_cells``.  The minus side is dual.  The guard
    in ``spatial_reflection`` only catches a fault in the code this proof
    relies on.

    The guard is one AND per side.  ``CoordinateTables.meet_irreducibles``
    holds, per coordinate lattice, the mask of the elements with one upper
    cover (``lattice.prime_generators``), built once per record, and the
    sides are the mask of the u_k.  ``irreducible & ~sides`` is nonzero iff
    some element with one upper cover is no side, which is what a scan of
    the cover rows asks of each element.
    """
    sp = spatial_reflection(dl)
    con_diff, tot_diff = dl.con_mask ^ sp.con_mask, dl.tot_mask ^ sp.tot_mask
    if con_diff | tot_diff:
        p = low_bit(con_diff | tot_diff)
        clause = "(ii)" if (con_diff >> p) & 1 else "(iii)"
        i, j = dl.unpid(p)
        return False, f"clause {clause} fails at ideal pair ({i},{j})"
    return True, "spatial"


def lambda_equivalence_check(lattices, dbools=()):
    """Fullness/faithfulness via hom counts and essential surjectivity via
    the canonical isomorphism onto the image of the plus lattice."""
    report = {"hom_pairs": [], "essential": [], "ok": True}
    for A in dbools:
        canonical_lambda_iso(A)  # raises InvariantViolation if either direction fails
        report["essential"].append({"plus_size": A.plus.n, "minus_size": A.minus.n, "iso": True})
    for M in lattices:
        for N in lattices:
            lat_homs = enumerate_lattice_homs(M, N)
            dl_homs = enumerate_dlattice_homs(lambda_of_dislat(M), lambda_of_dislat(N))
            expected = sorted((h.mapping, h.mapping) for h in lat_homs)
            got = sorted((h.fplus, h.fminus) for h in dl_homs)
            ok = expected == got
            report["hom_pairs"].append(
                {"M": M.n, "N": N.n, "lattice_homs": len(lat_homs), "dlattice_homs": len(dl_homs), "bijective": ok}
            )
            if not ok:
                report["ok"] = False
    return report


def classical_square_check(B):
    """The embedding squares against classical Stone duality: the spectrum of
    the doubled algebra is the doubled classical spectrum, and likewise for
    the clopen algebras."""
    if not B.is_boolean():
        raise ValueError("classical square requires a Boolean lattice")
    primes, gens = classical_spec(B)
    n_pts = len(primes)
    topology = generate_topology(n_pts, gens)
    omega_spec = omega_space([f"p{k}" for k in range(n_pts)], topology)

    wB = omega_of_lattice(B)
    spec = spectrum(wB)
    if spec.space.n != n_pts:
        return False
    carrier_index = {B.down[u]: k for k, u in enumerate(primes)}
    mapping = []
    for g in spec.primes:
        key = g.zero_set_plus()
        if key not in carrier_index:
            return False
        mapping.append(carrier_index[key])
    if sorted(mapping) != list(range(n_pts)):
        return False
    if not is_homeomorphism(tuple(mapping), spec.space, omega_spec):
        return False

    clopens = [u for u in topology if (omega_spec.full & ~u) in topology]
    clop_lattice = lattice_from_family(clopens, omega_spec.labels)
    lhs = dclop_algebra(spec.space)
    rhs = omega_of_lattice(clop_lattice)
    return find_dlattice_iso(lhs, rhs) is not None


def is_complete_lattice(L):
    """Literal completeness: every subset S of L has a least upper bound.

    Only the order rows are read, never the meet/join tables.  The upper
    bounds of S form the mask ub(S), the AND of ``L.up[a]`` over a in S (the
    full carrier when S is empty).  Intersecting with the rows of the
    members of S one at a time reaches ub(S) from the full mask, and every
    mask reached that way is ub of the members used; so the closure of the
    full mask under U ↦ U & L.up[a] is exactly {ub(S) : S ⊆ L}.  A worklist
    over the distinct masks of that closure therefore visits the upper-bound
    set of every subset without listing the subsets.  S has a least upper
    bound iff some l in U = ub(S) has U & ~L.up[l] == 0; an empty U fails.
    A mask that passes equals ``L.up[l]``, so at most n masks pass before the
    scan ends: O(n²) bit operations, with no size cap.
    """
    full = (1 << L.n) - 1
    seen = {full}
    todo = [full]
    while todo:
        ub = todo.pop()
        if not any(ub & ~L.up[least] == 0 for least in bits(ub)):
            return False
        for row in L.up:
            nxt = ub & row
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def complete_extremally_disconnected_check(X):
    """Biconditional: extremal disconnectedness ⟺ complete d-clopen algebra.

    The right side is decided on both coordinate lattices of dClop(X) by the
    exact upper-bound closure of ``is_complete_lattice``, at every size.
    """
    if not is_zero_dimensional(X):
        raise NotZeroDimensional("check requires a zero-dimensional space")
    lhs = is_extremally_disconnected(X)
    A = dclop_algebra(X)
    rhs = is_complete_lattice(A.plus) and is_complete_lattice(A.minus)
    return lhs == rhs


# ---------------------------------------------------------------------------
# finite counterexample search for the two open questions


@dataclass(frozen=True)
class SearchReport:
    conjecture: str
    bounds: dict
    examined: int
    outcome: str  # EXHAUSTED_NO_COUNTEREXAMPLE | COUNTEREXAMPLE
    counterexample: object = None
    notes: str = ""

    def to_json(self):
        return {
            "kind": "search-report",
            "version": 1,
            "conjecture": self.conjecture,
            "bounds": self.bounds,
            "examined": self.examined,
            "outcome": self.outcome,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }


def enumerate_topologies(n):
    """The up-sets (``closed_sets`` of the up rows) of each preorder on n
    labeled points, sorted.  Every finite topology arises so, and none
    twice: x ≤ y iff every up-set holding x holds y, so the preorder is read
    back from its up-sets."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return sorted(
        tuple(sorted(closed_sets(rows), key=lambda m: (m.bit_count(), m)))
        for rows in transitive_relations(n, pairs)
    )


RELABEL_TABLE_MAX_POINTS = 6  # 720 relabelings × 64 subset masks


@lru_cache(maxsize=None)
def _relabel_tables(n):
    """One table per relabeling perm of n points, in ``permutations`` order:
    entry m is the image {perm[x] : x ∈ m} of the subset mask m."""
    if n > RELABEL_TABLE_MAX_POINTS:
        raise BoundsTooLarge(f"relabeling tables capped at {RELABEL_TABLE_MAX_POINTS} points")
    tables = []
    for perm in permutations(range(n)):
        image = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            image[m] = image[m ^ low] | (1 << perm[low.bit_length() - 1])
        tables.append(tuple(image))
    return tuple(tables)


def _space_signature(spc):
    """Canonical form: the least (sorted image of τ₊, sorted image of τ₋)
    over all relabelings, read from the cached subset tables; τ₋ is imaged
    only when τ₊ does not already lose to the best so far."""
    best = None
    for image in _relabel_tables(spc.n):
        tp = sorted([image[u] for u in spc.tau_plus])
        if best is not None and tp > best[0]:
            continue
        tm = sorted([image[v] for v in spc.tau_minus])
        if best is None or (tp, tm) < best:
            best = (tp, tm)
    return (tuple(best[0]), tuple(best[1]))


PERVIN_NOTE = (
    "connectedness formalization: S is disconnected iff S is covered by a "
    "plus-open U and a minus-open V with S∩U, S∩V nonempty and disjoint; "
    "the source does not restate the original definition"
)


def conjecture_search(conjecture, bounds):
    """Exhaustive search at small bounds; counterexamples are re-verified
    against freshly rebuilt structures before being reported."""
    if conjecture == "Q1":
        return _search_q1(int(bounds))
    if conjecture == "Q2":
        return _search_q2(int(bounds))
    raise ValueError(f"unknown conjecture {conjecture!r}; expected Q1 or Q2")


def _first_counterexample(conjecture, bounds, build, candidates, violation, payload, notes=""):
    """The tail both searches share.  ``candidates`` yields (structure, args),
    each structure examined built once as ``build(*args)``; ``violation`` is
    falsy on a structure that is no counterexample and otherwise says what
    fails.  The first hit is built once more from its args and must fail the
    same way before ``payload(fresh, found)`` reports it."""
    examined = 0
    for structure, args in candidates:
        examined += 1
        found = violation(structure)
        if found:
            fresh = build(*args)
            if violation(fresh) != found:
                raise InvariantViolation(f"{conjecture} counterexample failed re-verification")
            return SearchReport(conjecture, bounds, examined, "COUNTEREXAMPLE", payload(fresh, found), notes)
    return SearchReport(conjecture, bounds, examined, "EXHAUSTED_NO_COUNTEREXAMPLE", None, notes)


def _q1_counterexample(spc):
    """T0, compact, with singleton connected subsets, and not Stone."""
    return is_T0(spc) and is_compact(spc) and connected_subsets_are_singletons(spc) and not is_stone(spc)


def _q1_spaces(max_points):
    """One space per canonical form of the pairs of topologies on 1..max_points."""
    seen = set()
    for n in range(1, max_points + 1):
        tops = enumerate_topologies(n)
        labels = [f"x{i}" for i in range(n)]
        for tp in tops:
            for tm in tops:
                spc = BiTopSpace(labels, tp, tm)
                sig = _space_signature(spc)
                if sig not in seen:
                    seen.add(sig)
                    yield spc, (labels, tp, tm)


def _q1_payload(spc, found):
    return {
        "points": list(spc.labels),
        "tau_plus": [list(bits(u)) for u in spc.tau_plus],
        "tau_minus": [list(bits(v)) for v in spc.tau_minus],
    }


def _search_q1(max_points):
    """Q1: can zero-dimensionality in the Stone characterization be weakened
    to `connected subsets are singletons`?  Searches for a T0 compact space
    with singleton connected subsets that is not Stone."""
    if max_points > 4:
        raise BoundsTooLarge("Q1 search capped at 4 points")
    return _first_counterexample(
        "Q1", {"max_points": max_points}, BiTopSpace, _q1_spaces(max_points), _q1_counterexample, _q1_payload,
        PERVIN_NOTE,
    )


def _down_sets_of_product(dl, seed_mask):
    """All down-sets of the coordinate product containing the seed, sorted:
    the ``closed_sets`` of the rows ↓a × ↓b of the pairs (a, b).  With them,
    the downward cover steps they are closed under."""
    tables = coordinate_tables(dl)
    plus, minus = tables.down_masks
    return closed_sets([row & col for row in plus for col in minus], seed_mask), tables.down_steps


def _up_sets_containing(dl, seed_mask):
    """All up-sets of the coordinate product containing the seed, sorted: the
    ``closed_sets`` of the rows ↑a × ↑b of the pairs (a, b)."""
    plus, minus = coordinate_tables(dl).up_masks
    return closed_sets([row & col for row in plus for col in minus], seed_mask)


def _logic_closed(dl, mask):
    """Whether a pair set is closed under logic meet and join.  Down-sets and
    up-sets are decided on their extremal members (see ``dlattice``)."""
    tables = coordinate_tables(dl)
    below = step(mask, tables.down_steps)
    if below & ~mask == 0:
        deciding = mask & ~below
    else:
        above = step(mask, tables.up_steps)
        deciding = mask & ~above if above & ~mask == 0 else mask
    return logic_closed_on(dl, tables.logic, mask, deciding)


def _q2_dlattices(max_lattice_size):
    """The valid d-lattices (con, tot) on each pair of coordinate lattices up
    to the bound: con a logic-closed down-set and tot a logic-closed up-set,
    each holding tt and ff."""
    lattices = _distributive_lattices_upto(max_lattice_size)
    for plus in lattices:
        for minus in lattices:
            shell = DLattice(plus, minus, 0, 0)
            seed = (1 << shell.tt) | (1 << shell.ff)
            cons = [c for c in _down_sets_of_product(shell, seed)[0] if _logic_closed(shell, c)]
            tots = [t for t in _up_sets_containing(shell, seed) if _logic_closed(shell, t)]
            for con in cons:
                for tot in tots:
                    cand = DLattice(plus, minus, con, tot)
                    if validate_dlattice(cand).ok:
                        yield cand, (plus, minus, con, tot)


def _q2_violation(dl):
    """The spatiality clause a valid d-lattice fails, or None.  Validity is
    checked here too, so that a fresh rebuild is re-verified in full."""
    if not validate_dlattice(dl).ok:
        return None
    spatial, detail = spatiality_check(dl)
    return None if spatial else detail


def _q2_payload(dl, found):
    return {
        "plus_size": dl.plus.n,
        "minus_size": dl.minus.n,
        "con": [list(dl.unpid(p)) for p in bits(dl.con_mask)],
        "tot": [list(dl.unpid(p)) for p in bits(dl.tot_mask)],
        "violation": found,
    }


def _search_q2(max_lattice_size):
    """Q2: is the ideal frame spatial for every d-lattice?  Enumerates all
    d-lattices with coordinate lattices up to the bound and runs the three
    spatiality clauses."""
    if max_lattice_size > 5:
        raise BoundsTooLarge("Q2 search capped at coordinate lattices of size 5")
    return _first_counterexample(
        "Q2", {"max_lattice_size": max_lattice_size}, DLattice, _q2_dlattices(max_lattice_size), _q2_violation,
        _q2_payload,
    )
