"""Finite bitopological spaces.

Point subsets are int bitmasks; topologies are stored extensionally as
sorted tuples of masks, so redundant bases and non-Alexandrov-style input
are handled uniformly.  ``generate_topology`` reads the opens as the
up-sets of the specialization preorder of its subbase.  ``BiTopSpace``
keeps each topology's set of opens as well (``open_sets``): closure under
∪ and ∩ is checked against it over the pairs of the sorted tuple, in order,
and membership tests elsewhere read it.  Every finite bitopological space
is compact, so ``is_compact`` is its finiteness proof rather than a
subcover search, and ``is_stone`` is the finite Stone lemma (τ₊ is T0 and
τ₋ is its complements); the paper's two characterizations stay beside it,
and the ``stone-characterizations`` suite row compares all three.

Pervin connectedness is not restated in the source material, so the
formalization used here is: a subset S is disconnected iff S ⊆ U ∪ V for
some U in the plus topology and V in the minus topology with S ∩ U and
S ∩ V nonempty and disjoint.  Reports that depend on it say so.
``connected_subsets_are_singletons`` scans no subsets: by the finite lemma
proved in its docstring, it is the row test of ``is_stone``'s T0 clause on
the τ₊-open, τ₋-closed sets.

A ``BiTopSpace`` is not changed after ``__init__``, so it holds its own
dual: the first ``dclop_algebra(space)`` validates the d-clopen algebra and
stores it as ``space.held_dclop``; later calls return that object.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .config import max_elements
from .dlattice import DBooleanAlgebra, DLattice, require_valid, validate_dboolean, validate_dlattice
from .errors import BoundsTooLarge, DegeneratePair, InvariantViolation, NotATopology
from .ideals import BMap, enumerate_prime_d_ideals, four_case_values
from .lattice import _transpose, bits, closed_sets, down_sets, lattice_from_family, mask_of


class BiTopSpace:
    """Point set with two topologies, each a family of point bitmasks; not
    changed after ``__init__``.  ``held_dclop`` is set by the first
    ``dclop_algebra`` of the space."""

    def __init__(self, labels, tau_plus, tau_minus):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n > max_elements():
            raise BoundsTooLarge(f"space has {n} points, guard is {max_elements()}")
        full = (1 << n) - 1
        families = []
        for name, fam in (("tau_plus", tau_plus), ("tau_minus", tau_minus)):
            opens = frozenset(map(int, fam))
            families.append((name, opens, tuple(sorted(opens, key=lambda m: (m.bit_count(), m)))))
        for name, opens, fam in families:
            if 0 not in opens or full not in opens:
                raise NotATopology(f"{name} must contain the empty set and the whole space")
            for u, v in combinations(fam, 2):
                if (u | v) not in opens:
                    raise NotATopology(f"{name} not closed under union")
                if (u & v) not in opens:
                    raise NotATopology(f"{name} not closed under intersection")
        self.labels = labels
        self.n = n
        self.full = full
        (_, plus, self.tau_plus), (_, minus, self.tau_minus) = families
        self.open_sets = (plus, minus)

    def closure(self, mask, opens):
        """Smallest superset of mask that is closed in the topology ``opens``."""
        out = self.full
        for u in opens:
            closed = self.full & ~u
            if mask & ~closed == 0:
                out &= closed
        return out


def generate_topology(n, subbase):
    """Smallest topology containing the subbase, sorted by (popcount, mask):
    the up-sets (``closed_sets``) of its specialization preorder, as for
    every finite topology.  Row x, the least open around x, is the meet of
    the subbase members holding x (the whole space if none does)."""
    return tuple(sorted(closed_sets(_specialization(n, subbase)), key=lambda m: (m.bit_count(), m)))


def omega_space(labels, topology):
    """Both coordinates equal to the given topology."""
    return BiTopSpace(labels, topology, topology)


# ---------------------------------------------------------------------------
# specialization orders


@dataclass(frozen=True)
class SpecializationData:
    leq_plus: tuple
    leq_minus: tuple
    leq: tuple  # intersection of leq_plus and the opposite of leq_minus


def _specialization(n, family):
    """x ≤ y iff every open containing x contains y."""
    rows = []
    for x in range(n):
        core = (1 << n) - 1
        for u in family:
            if (u >> x) & 1:
                core &= u
        rows.append(core)
    return tuple(rows)


def specialization(space):
    """≤₊, ≤₋ and their bi-specialization preorder ≤₊ ∩ ≥₋, as up rows.
    Both are preorders, so ``leq`` is one: it is antisymmetric iff its rows
    are distinct, as x ≤ y ≤ x gives x and y the same row by transitivity,
    and equal rows give x ≤ y ≤ x by reflexivity."""
    lp = _specialization(space.n, space.tau_plus)
    lm = _specialization(space.n, space.tau_minus)
    return SpecializationData(lp, lm, tuple(row & col for row, col in zip(lp, _transpose(lm))))


# ---------------------------------------------------------------------------
# separation predicates


def is_T0(space):
    """Some open of either topology contains one point but not the other:
    no two points share both least opens, the rows of ``_specialization``."""
    rows = zip(_specialization(space.n, space.tau_plus), _specialization(space.n, space.tau_minus))
    return len(set(rows)) == space.n


def is_compact(space):
    """Every cover from the union of both topologies has a finite subcover.

    Always true here.  The space is finite, so it has finitely many opens,
    and every covering subfamily is already finite: it is its own finite
    subcover.  The function keeps the name so that the Stone
    characterizations read as stated.  The frame-side statement, tot
    Scott-open, is the ``tot-upper-set`` clause of ``validate_dlattice``
    (see ``ideals.idl_dframe``), which ``dO`` checks on every space and the
    ``finite-compactness`` suite row reads on every corpus space.
    """
    return True


def plus_open_minus_closed(space):
    return [u for u in space.tau_plus if (space.full & ~u) in space.open_sets[1]]


def minus_open_plus_closed(space):
    return [v for v in space.tau_minus if (space.full & ~v) in space.open_sets[0]]


def is_zero_dimensional(space):
    """Each topology has a base of sets closed in the other topology."""
    for opens, base in (
        (space.tau_plus, plus_open_minus_closed(space)),
        (space.tau_minus, minus_open_plus_closed(space)),
    ):
        for u in opens:
            union = 0
            for b in base:
                if b & ~u == 0:
                    union |= b
            if union != u:
                return False
    return True


def is_order_separated(space):
    spec = specialization(space)
    if len(set(spec.leq)) != space.n:  # not antisymmetric (``specialization``)
        return False
    for x in range(space.n):
        for y in range(space.n):
            if (spec.leq[x] >> y) & 1:
                continue
            if not any(
                (u >> x) & 1 and (v >> y) & 1 and u & v == 0
                for u in space.tau_plus
                for v in space.tau_minus
            ):
                return False
    return True


def is_totally_order_separated(space):
    spec = specialization(space)
    if len(set(spec.leq)) != space.n:  # not antisymmetric (``specialization``)
        return False
    pomc = plus_open_minus_closed(space)
    for x in range(space.n):
        for y in range(space.n):
            if (spec.leq[x] >> y) & 1:
                continue
            if not any((s >> x) & 1 and not (s >> y) & 1 for s in pomc):
                return False
    return True


def is_stone(space):
    """Stone (T0, compact and zero-dimensional) iff τ₊ is T0 and τ₋ is the
    family of complements of τ₊: the up-sets and down-sets of one partial
    order, as ``stone_space_from_poset`` builds them.

    If so, each τ₊-open is τ₋-closed and each τ₋-open τ₊-closed, so each
    topology is a base of itself made of sets closed in the other: the
    space is zero-dimensional, and T0 on τ₊ alone.  Conversely,
    zero-dimensionality makes each τ₊-open a union of τ₋-closed sets,
    finitely many, so τ₋-closed, and each τ₋-open τ₊-closed the same way,
    so τ₋ is exactly the complements of τ₊.  Then points split by a τ₋-open
    V are split by the τ₊-open X∖V, so τ₊ alone is T0.  Every finite space
    is compact (``is_compact``).  τ₊ is T0 iff its least opens ↑x, the rows
    of ``_specialization``, are distinct.  The ``stone-characterizations``
    suite row checks this against both characterizations of the paper.
    """
    rows = _specialization(space.n, space.tau_plus)
    return len(set(rows)) == space.n and space.open_sets[1] == {space.full & ~u for u in space.tau_plus}


def is_extremally_disconnected(space):
    plus, minus = space.tau_plus, space.tau_minus
    return all(
        space.closure(u, other) in open_set
        for opens, open_set, other in zip((plus, minus), space.open_sets, (minus, plus))
        for u in opens
    )


def connected_subsets_are_singletons(space):
    """Every Pervin-connected subset (module docstring) has one point at
    most iff every two points are split by a τ₊-open set with a τ₋-open
    complement, i.e. iff the least such sets around the points, the rows of
    ``_specialization`` over ``plus_open_minus_closed``, are distinct.  The
    Pervin subset scan is the oracle in the tests.

    Let x ≤± y iff every τ±-open containing x contains y, and x → y iff
    x ≤₊ y or y ≤₋ x.
    (a) S is disconnected iff S = A ⊔ B with A, B nonempty and no edge of →
    from A to B.  Given U and V, take A = S∩U and B = S∩V: an edge x → y
    from A to B puts y (x ≤₊ y) or x (y ≤₋ x) in S∩U∩V, which is empty.
    Given A and B, take the least opens U = ↑₊A and V = ↑₋B (finite
    topologies are Alexandrov): z ∈ S∩U∩V has a ≤₊ z and b ≤₋ z for some
    a ∈ A and b ∈ B, an edge a → z if z ∈ B and z → b if z ∈ A.
    (b) So S is connected iff → is strongly connected on S: the points x
    reaches inside S, if not all of S, split S with no edge out, and a walk
    from A to B has an edge from A to B.  Hence a connected S with two
    points exists iff the preorder →* is not antisymmetric (take the points
    of a closed walk through x ≠ y).
    (c) U is τ₊-open with a τ₋-open complement iff U is a ≤₊-up-set and a
    ≤₋-down-set, iff U is an up-set of →*.  The least one around x is the
    up-set of x in →*, so these rows are distinct iff →* is antisymmetric.
    """
    return len(set(_specialization(space.n, plus_open_minus_closed(space)))) == space.n


# ---------------------------------------------------------------------------
# continuity and homeomorphisms


def preimage(mapping, n_source, mask):
    out = 0
    for x in range(n_source):
        if (mask >> mapping[x]) & 1:
            out |= 1 << x
    return out


def is_continuous(mapping, X, Y):
    """Preimages of opens are open, for both topologies."""
    mapping = tuple(mapping)
    return all(
        preimage(mapping, X.n, u) in open_set
        for open_set, opens in zip(X.open_sets, (Y.tau_plus, Y.tau_minus))
        for u in opens
    )


def is_homeomorphism(mapping, X, Y):
    mapping = tuple(mapping)
    if sorted(mapping) != list(range(Y.n)):
        return False
    return all(
        {mask_of(mapping[x] for x in bits(u)) for u in opens} == open_set
        for opens, open_set in zip((X.tau_plus, X.tau_minus), Y.open_sets)
    )


# ---------------------------------------------------------------------------
# open-set d-frames and d-clopen algebras


def disjoint_and_covering(plus_sets, minus_sets, full):
    """Two pair-id masks over plus_sets × minus_sets, row-major: the pairs
    whose sets are disjoint and the pairs whose union is full."""
    disjoint = covering = 0
    bit = 1  # of pair id a * len(minus_sets) + b
    for u in plus_sets:
        for v in minus_sets:
            if not u & v:
                disjoint |= bit
            if u | v == full:
                covering |= bit
            bit <<= 1
    return disjoint, covering


def _side_lattices(space, plus_family, minus_family):
    """The coordinate lattices; with no points each has one set: {tt,ff} = {1,0}."""
    if space.n == 0:
        raise DegeneratePair("the empty space gives a degenerate pair")
    return (lattice_from_family(fam, space.labels) for fam in (plus_family, minus_family))


def dO(space):
    """d-frame of the two open-set lattices; con is disjointness, tot is
    covering."""
    plus, minus = _side_lattices(space, space.tau_plus, space.tau_minus)
    df = DLattice(plus, minus, *disjoint_and_covering(plus.sets, minus.sets, space.full))
    require_valid(validate_dlattice(df), "dO")
    return df


def dclop_algebra(space):
    """d-Boolean algebra of d-clopen sets; the pairing is set complement.

    Built and validated once per space: the algebra is held on the space
    (``held_dclop``), and a repeat call returns the same object."""
    held = getattr(space, "held_dclop", None)
    if held is not None:
        return held
    plus, minus = _side_lattices(space, plus_open_minus_closed(space), minus_open_plus_closed(space))
    minus_index = {v: j for j, v in enumerate(minus.sets)}
    dagger = [minus_index[space.full & ~u] for u in plus.sets]
    A = DBooleanAlgebra(plus, minus, *disjoint_and_covering(plus.sets, minus.sets, space.full), dagger)
    require_valid(validate_dboolean(A), "dClop")
    space.held_dclop = A
    return A


def point_d_point(space, df):
    """The d-point [x] of df, dO(space) or dClop(space), for each point x:
    the four-case map with tt rows {a : x ∈ U_a} and ff columns
    {b : x ∈ V_b}."""
    out = []
    for x in range(space.n):
        tt_rows = mask_of(a for a, u in enumerate(df.plus.sets) if (u >> x) & 1)
        ff_columns = mask_of(b for b, v in enumerate(df.minus.sets) if (v >> x) & 1)
        out.append(BMap(df, four_case_values(df, tt_rows, ff_columns)))
    return out


def is_d_sober(space):
    """Every d-point of the open-set d-frame is [x] for exactly one x."""
    df = dO(space)
    generated = {p.values for p in point_d_point(space, df)}
    primes = sorted(p.values for p in enumerate_prime_d_ideals(df))
    return len(generated) == space.n and sorted(generated) == primes


def stone_space_from_poset(poset):
    """Up-sets as the plus topology, down-sets as the minus topology; the
    result is always Stone (finite topologies are Alexandrov)."""
    spc = BiTopSpace(poset.labels, down_sets(poset.dual()), down_sets(poset))
    if not is_stone(spc):
        raise InvariantViolation("poset space failed the Stone lemma")
    return spc


def bool_bitop_space():
    """The four-point dualizing space: opens above tt on one side, above ff
    on the other."""
    labels = ["0", "tt", "ff", "1"]
    up_tt = mask_of([1, 3])   # {tt, 1}
    zero_tt = mask_of([0, 1])  # {0, tt}
    up_ff = mask_of([2, 3])
    zero_ff = mask_of([0, 2])
    return BiTopSpace(labels, generate_topology(4, [up_tt, zero_tt]), generate_topology(4, [up_ff, zero_ff]))


def continuous_maps_to_bool_space(space):
    """All continuous maps into the dualizing space, by exhaustive scan."""
    if space.n > 8:
        raise BoundsTooLarge("map enumeration capped at 8 points")
    target = bool_bitop_space()
    return [mapping for mapping in product(range(4), repeat=space.n) if is_continuous(mapping, space, target)]


def map_from_dclopen_pair(space, u, v):
    """f_{U,V}: 1 on U∩V, tt on U\\V, ff on V\\U, 0 elsewhere (as points of
    the dualizing space: 0↦0, tt↦1, ff↦2, 1↦3)."""
    mapping = []
    for x in range(space.n):
        in_u = (u >> x) & 1
        in_v = (v >> x) & 1
        mapping.append(3 if in_u and in_v else 1 if in_u else 2 if in_v else 0)
    return tuple(mapping)
