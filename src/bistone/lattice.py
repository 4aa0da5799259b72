"""Finite posets and finite bounded distributive lattices.

Elements are dense integer ids; labels are metadata.  Subsets are int
bitmasks, so every predicate is an exhaustive scan over at most 64 elements
per structure.  Down-sets, up-sets and the opens of a finite topology are
the closed sets of a preorder's rows, all found by one search
(``closed_sets``).  A lattice is its order plus tables: ``FiniteLattice``
subclasses ``FinitePoset`` and adds the bounds and the meet and join
tables, immutable tuples of tuples of ints indexed ``[a][b]``, built once
with the lattice.  A lattice of a set family closed under ∩ and ∪ takes
its tables straight from ∩ and ∪ (``lattice_from_family``); any other
relation goes through the generic
``build_lattice``, which decides distributivity by Birkhoff's
characterization (every join-irreducible element is join-prime).
The prime ideals are the ↓u of the meet-irreducibles u, and a lattice is
Boolean iff its join-irreducibles are atoms.  Isomorphism has one decision
procedure: the canonical form of the order
(``FinitePoset.canonical_orderings``), whose minimising relabelings give
every lattice isomorphism (``lattice_isos``) and so every automorphism.
Homomorphisms L → M are read from J, as the monotone maps J(M) → J(L).
"""

from dataclasses import dataclass, field
from itertools import combinations, product

from .config import BRUTE_FORCE_IDEAL_LIMIT, max_elements
from .errors import (
    BoundsTooLarge,
    InvariantViolation,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
)
from .report import StructReport


def bits(mask):
    """Iterate set bit positions of an int bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def low_bit(mask):
    """Position of the lowest set bit of a nonzero int bitmask."""
    return (mask & -mask).bit_length() - 1


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def inverse_permutation(perm, size=None):
    """The tuple inv with inv[perm[i]] = i, of length ``size`` (default
    ``len(perm)``); a position that perm does not hit holds 0."""
    inv = [0] * (len(perm) if size is None else size)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _transpose(rows):
    """Bitmask rows of the converse relation: bit i of out[j] iff bit j of
    rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def _check_size(n):
    if n > max_elements():
        raise BoundsTooLarge(f"poset has {n} elements, guard is {max_elements()}")


class FinitePoset:
    """Finite poset: labels plus the order relation as bitmask rows, with
    the cover relation (Hasse diagram) as rows and as an edge list."""

    __slots__ = ("labels", "n", "up", "down", "cover_up", "cover_down", "hasse")

    def __init__(self, labels, leq):
        """The poset of a boolean relation matrix: leq[i][j] iff i ≤ j."""
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        _check_size(n)
        up = [0] * n
        for i in range(n):
            row = leq[i]
            for j in range(n):
                if row[j]:
                    up[i] |= 1 << j
        self._set_order(labels, up)

    @classmethod
    def from_rows(cls, labels, up):
        """The poset whose order has the bitmask rows ``up`` (bit j of up[i]
        iff i ≤ j), with the same guard and checks as the matrix form."""
        labels = tuple(str(x) for x in labels)
        _check_size(len(labels))
        out = object.__new__(cls)
        out._set_order(labels, up)
        return out

    def _set_order(self, labels, up):
        """Check the rows for reflexivity, antisymmetry and transitivity, then
        store them with the down rows and the cover relation.  A failure
        names the first witness of a pairwise scan over the rows."""
        n = len(labels)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise NotAPoset(f"leq not reflexive at {labels[i]}", witness=(i,))
        down = _transpose(up)
        for i in range(n):
            twins = up[i] & down[i] & ~(1 << i)
            if twins:
                j = low_bit(twins)
                raise NotAPoset(
                    f"leq not antisymmetric on ({labels[i]}, {labels[j]})",
                    witness=(i, j),
                )
        # j covers i iff j is strictly above i and strictly above nothing
        # that is strictly above i; the order is transitive at i iff all
        # that lies strictly above the elements above i is above i
        cover_up = [0] * n
        for i, row in enumerate(up):
            strict = row & ~(1 << i)
            above = 0
            rest = strict
            while rest:
                low = rest & -rest
                above |= up[low.bit_length() - 1] & ~low
                rest ^= low
            if above & ~row:
                j = next(j for j in bits(row) if up[j] & ~row)
                k = low_bit(up[j] & ~row)
                raise NotAPoset(
                    f"leq not transitive on ({labels[i]}, {labels[j]}, {labels[k]})",
                    witness=(i, j, k),
                )
            cover_up[i] = strict & ~above
        self.labels = labels
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.cover_up = tuple(cover_up)
        self.cover_down = tuple(_transpose(cover_up))
        self.hasse = tuple((i, j) for i, row in enumerate(cover_up) for j in bits(row))

    def relabeled(self, labels):
        """The same order under new labels."""
        labels = tuple(str(x) for x in labels)
        if len(labels) != self.n:
            raise ValueError(f"{len(labels)} labels for a poset of {self.n} elements")
        out = object.__new__(FinitePoset)
        for name in FinitePoset.__slots__:
            setattr(out, name, labels if name == "labels" else getattr(self, name))
        return out

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def linear_extension(self):
        return sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))

    def dual(self):
        return FinitePoset.from_rows(self.labels, self.down)

    def isomorphism_signature(self):
        """Canonical form ``(n, code)``; see ``canonical_orderings``."""
        return self.canonical_orderings()[0]

    def canonical_orderings(self):
        """``(signature, minimisers)``.  The signature is ``(n, code)``: code
        is the least row-major code of the relation, bit (i, j) set iff
        Q[i] ≤ Q[j], over all relabelings Q (position ↦ element), with row 0
        the most significant.  The minimisers are every Q attaining it, as
        tuples, so there are exactly |Aut| of them: Q′ attains Q's code iff
        Q[i] ≤ Q[j] ⇔ Q′[i] ≤ Q′[j] for all i, j, iff Q[i] ↦ Q′[i] is an
        automorphism.

        Only reverse linear extensions are tried: every minimiser places, at
        each position i, an element that is maximal among those not yet
        placed.  Suppose a minimiser Q first breaks this at i, and swap in a
        maximal remaining m ≥ Q[i].  Rows k < i do not change: by induction
        their bits at columns after k are 0.  Row i's bits at columns k < i
        do not grow, since m ≤ Q[k] implies Q[i] ≤ Q[k].  Row i's bits after
        column i all become 0, where before Q[i] had a 1 at m's column.  So
        the code strictly drops, against minimality.  Hence every bit above
        the diagonal is 0, and row i is fixed by the prefix Q[0..i].

        Level i keeps exactly the prefixes of length i whose rows equal the
        least code's first i rows, so no minimiser is dropped.  Induction:
        each one-step extension of a kept prefix completes to a reverse
        linear extension, whose code is at least the least code, so its
        row i is at least the least code's row i; the prefix of a minimiser
        is among them and attains it.  So the least row is the least code's
        row i, and the prefixes kept are the claimed ones.  At level n they
        are the minimisers."""
        n = self.n
        strict = [row ^ (1 << m) for m, row in enumerate(self.up)]
        # a prefix is (unplaced mask, weight of each placed element), where
        # the element at position j weighs bit n-1-j of its column
        level = [((1 << n) - 1, (0,) * n)]
        code = 0
        for i in range(n):
            diagonal = 1 << (n - 1 - i)
            best, kept = None, []
            for rest, weight in level:
                for m in bits(rest):
                    if strict[m] & rest:
                        continue  # not maximal among the unplaced
                    row = 0
                    for k in bits(strict[m]):
                        row |= weight[k]
                    if best is None or row < best:
                        best, kept = row, []
                    if row == best:
                        kept.append((rest ^ (1 << m), weight[:m] + (diagonal,) + weight[m + 1 :]))
            code = (code << n) | best | diagonal
            level = kept
        return (n, code), [inverse_permutation([n - w.bit_length() for w in weight]) for _, weight in level]


class FiniteLattice(FinitePoset):
    """Bounded distributive lattice: its order, a ``FinitePoset``, plus the
    bounds and precomputed meet/join tables: tuples of tuples of ints,
    ``meet[a][b]`` the meet of a and b.

    ``sets`` is populated when the lattice arises from a family of subsets
    (topologies, down-set lattices); it keeps the bitmask of each element.
    ``paired_tables`` holds, per minus lattice paired with this one as the
    plus lattice of a d-lattice, the ``dlattice.CoordinateTables`` record of
    the pair, shared with every pair of the same orders, beside a dict of
    this pair's own ``validate_dlattice`` reports by cause, which carry its
    labels (``dlattice.coordinate_tables`` makes the entry).
    """

    __slots__ = ("bot", "top", "meet", "join", "sets", "paired_tables")

    def __init__(self, order, bot, top, meet, join, sets=None):
        for name in FinitePoset.__slots__:
            setattr(self, name, getattr(order, name))
        self.bot = bot
        self.top = top
        self.meet = meet
        self.join = join
        self.sets = sets
        self.paired_tables = {}

    def is_boolean(self):
        """Whether every element has a complement: iff each join-irreducible
        covers bot, so that L ≅ D(J(L)) is the power set of its atoms.  Else
        some join-irreducible j′ lies below the lower cover of another, j,
        and a complement x of j′ gives j = j ∧ (j′ ∨ x) = j′ ∨ (j ∧ x), so
        j ≤ x and j′ = j′ ∧ x = bot."""
        return all(self.cover_down[j] == 1 << self.bot for j in join_irreducibles(self))

    def dual(self):
        """Same elements with the order reversed."""
        return FiniteLattice(FinitePoset.dual(self), self.top, self.bot, self.join, self.meet, self.sets)


def extreme_of(mask, rows):
    """The member m of mask whose row contains mask: the greatest member
    for ``down`` rows, the least for ``up`` rows; None when there is none."""
    for m in bits(mask):
        if mask & ~rows[m] == 0:
            return m
    return None


def build_lattice(labels, leq):
    """Validate a relation into a bounded distributive lattice.

    Raises NotAPoset / NotBounded / NotALattice / NotDistributive with a
    witness.  Meets and joins are looked up, not searched: the meet of i and
    j is the m with ↓m = ↓i ∩ ↓j, one lookup in a dict from down rows to
    elements (rows are distinct, by antisymmetry).  A down-set S has a
    greatest member m iff S = ↓m: ↓m ⊆ S as S is a down-set holding m, and
    S ⊆ ↓m as m is greatest; conversely m is in ↓m and above all of it.  So
    the greatest common lower bound of i and j exists iff ↓i ∩ ↓j is some
    ↓m, and is then m.  Joins are the dual lookup in up rows, and the bounds
    are the elements whose up row (bot) or down row (top) is everything.
    A failure names the first (i, j) with i ≤ j in row-major order that has
    no meet or no join, the meet checked first.

    Distributivity is Birkhoff's test: a finite lattice is distributive iff
    every join-irreducible j (see ``join_irreducibles``) is join-prime
    (j ≤ a ∨ b implies j ≤ a or j ≤ b), that is iff the down-set L ∖ ↑j,
    nonempty as j ≠ bot, is join-closed: iff it has a greatest element,
    iff it is a down row.
    ⇒: if j ≤ a ∨ b then j = (j ∧ a) ∨ (j ∧ b), so j = j ∧ a or j = j ∧ b.
    ⇐: with J the join-irreducibles, x ↦ ↓x ∩ J is injective (x is the join
    of J ∩ ↓x), sends ∧ to ∩ and, as each j is join-prime, ∨ to ∪: an
    injective lattice hom into the down-sets of J, which are distributive.
    Only when the test fails does a scan name the first (a, b, c) in
    row-major order with a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c).
    """
    poset = FinitePoset(labels, leq)
    n = poset.n
    if n == 0:
        raise NotBounded("empty carrier has no bottom element")
    full = (1 << n) - 1
    below = {row: m for m, row in enumerate(poset.down)}.get
    above = {row: v for v, row in enumerate(poset.up)}.get
    bot, top = above(full), below(full)
    if bot is None or top is None:
        raise NotBounded("no global bottom/top element")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i, (down_i, up_i) in enumerate(zip(poset.down, poset.up)):
        meet_row, join_row = meet[i], join[i]
        for j in range(i, n):
            m = below(down_i & poset.down[j])
            if m is None:
                raise NotALattice(
                    f"({poset.labels[i]}, {poset.labels[j]}) has no meet", witness=(i, j)
                )
            v = above(up_i & poset.up[j])
            if v is None:
                raise NotALattice(
                    f"({poset.labels[i]}, {poset.labels[j]}) has no join", witness=(i, j)
                )
            meet_row[j] = meet[j][i] = m
            join_row[j] = join[j][i] = v
    meet, join = tuple(map(tuple, meet)), tuple(map(tuple, join))
    for j, lower in enumerate(poset.cover_down):
        if lower.bit_count() == 1 and below(full & ~poset.up[j]) is None:
            for a, b, c in product(range(n), repeat=3):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise NotDistributive(
                        f"witness triple ({poset.labels[a]}, {poset.labels[b]}, {poset.labels[c]})",
                        witness=(a, b, c),
                    )
            raise InvariantViolation(f"{poset.labels[j]} is not join-prime, yet every triple distributes")
    return FiniteLattice(poset, bot, top, meet, join)


def set_label(mask, point_labels):
    members = []
    while mask:
        low = mask & -mask
        members.append(point_labels[low.bit_length() - 1])
        mask ^= low
    return "{" + ",".join(members) + "}"


def lattice_from_family(masks, point_labels):
    """Lattice of a subset family closed under ∩ and ∪, ordered by
    inclusion.

    Every caller passes such a family: topologies, d-clopen sets, down-sets
    and the full power set.  Elements are the distinct masks sorted by
    (popcount, mask), and the meet and join of two elements are the indices
    of their intersection and union, one dict lookup each.  In a family
    closed under ∩, a ∩ b is a member below a and b that contains every
    member below both, so it is their meet; dually a ∪ b is their join.
    Order row i is {j : meet[i][j] == i}, filled in the loop over j ≥ i:
    no member is a subset of one before it in the sort, as a proper subset
    has a smaller popcount.  The intersection of all members is a member
    below every member, so it comes first in the sort and is the bottom;
    the union of all members is the top and comes last.

    Distributivity needs no scan: meet and join are ∩ and ∪, and
    a ∩ (b ∪ c) = (a ∩ b) ∪ (a ∩ c) holds for all sets.  A family that is
    not closed raises NotALattice naming the first (i, j) in row-major order
    whose intersection or union (checked in that order) is missing."""
    fam = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    n = len(fam)
    if n == 0:
        raise NotBounded("empty carrier has no bottom element")
    labels = [set_label(m, point_labels) for m in fam]
    index_of = {m: i for i, m in enumerate(fam)}.get
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    up = [0] * n
    for i, a in enumerate(fam):
        meet_row, join_row = meet[i], join[i]
        meet_row[i] = join_row[i] = i
        row = 1 << i
        for j in range(i + 1, n):
            b = fam[j]
            m, v = index_of(a & b), index_of(a | b)
            if m is None or v is None:
                missing = "intersection" if m is None else "union"
                raise NotALattice(
                    f"({labels[i]}, {labels[j]}): the {missing} is not in the family", witness=(i, j)
                )
            meet_row[j] = meet[j][i] = m
            join_row[j] = join[j][i] = v
            if m == i:
                row |= 1 << j
        up[i] = row
    poset = FinitePoset.from_rows(labels, up)
    return FiniteLattice(
        poset, 0, n - 1, tuple(map(tuple, meet)), tuple(map(tuple, join)), sets=tuple(fam)
    )


def birkhoff(poset):
    """Down-set lattice of a poset; always bounded distributive."""
    return lattice_from_family(down_sets(poset), poset.labels)


def is_closed(mask, rows):
    """Whether mask contains rows[i] for each member i: a down-set for the
    ``down`` rows of an order, an up-set for its ``up`` rows."""
    for i in bits(mask):
        if rows[i] & ~mask:
            return False
    return True


def transitive_relations(n, pairs):
    """The reflexive transitive relations on n points whose other pairs
    (i, j) come from ``pairs``, as up-mask rows, in bit-code order: code bit
    k adds pairs[k]."""
    for code in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                rows[i] |= 1 << j
        if all(is_closed(row, rows) for row in rows):
            yield tuple(rows)


def closed_sets(rows, start=0):
    """Every mask, ascending, that holds start and rows[i] for each member i
    (``is_closed``), for reflexive transitive rows: the down-sets of an
    order for its ``down`` rows, the up-sets of a preorder for its ``up``
    rows.  Then rows[x] is the least closed set holding x and unions of
    closed sets are closed, so a closed C above start is the closure of
    start joined with rows[x] for each x in C, one at a time: the search
    from that closure, which grows each set it finds by each row, finds C."""
    first = start
    for i in bits(start):
        first |= rows[i]
    full = (1 << len(rows)) - 1
    found = {first}
    frontier = [first]
    while frontier:
        cur = frontier.pop()
        for x in bits(full & ~cur):
            grown = cur | rows[x]
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found)


def down_sets(poset):
    """All down-sets of a poset as bitmasks, ascending; up-sets are the
    down-sets of ``poset.dual()``.  The 16-element cap bounds the output:
    an antichain of 16 elements already has 2^16 down-sets."""
    if poset.n > 16:
        raise BoundsTooLarge("down-set enumeration capped at 16-element posets")
    return closed_sets(poset.down)


def ideal_carriers(lattice):
    """Every subset that passes the ideal definition, ascending: the nonempty
    down-sets (``closed_sets``) that are closed under binary joins."""
    join = lattice.join
    return [
        mask
        for mask in closed_sets(lattice.down)[1:]
        if all((mask >> join[a][b]) & 1 for a in bits(mask) for b in bits(mask))
    ]


# ---------------------------------------------------------------------------
# ideals: a finite ideal is the down-set of its greatest member, so it is
# stored as that generator, and a filter as its least member


def ideal_generator(lattice, mask):
    """Validate a subset as an ideal and return its generator: finite
    ideals are principal, ``mask == lattice.down[gen]``.

    A down-set with a greatest member gen is join-closed, as a ∨ b ≤ gen
    for any two members.  One without is not: a finite nonempty join-closed
    set holds the join of all its members, its greatest.  So the join scan
    runs only then, to name the failure, and the guard after it fires only
    on a join table that disagrees with the order."""
    if mask == 0:
        raise ValueError("ideal must be nonempty")
    for a in bits(mask):
        if lattice.down[a] & ~mask:
            raise ValueError(f"carrier not downward closed at {lattice.labels[a]}")
    gen = extreme_of(mask, lattice.down)
    if gen is not None:
        return gen
    for a in bits(mask):
        for b in bits(mask):
            if not (mask >> lattice.join[a][b]) & 1:
                raise ValueError("carrier not closed under join")
    raise InvariantViolation("finite ideal must be principal")


def prime_generators(order):
    """The u, ascending, whose ↓u is a prime ideal of the distributive
    lattice with the cover rows of ``order`` (a lattice or a plain poset): the
    meet-irreducibles, dual to ``join_irreducibles``.  ↓u is prime iff u is
    meet-prime, which implies meet-irreducible; conversely, x ∧ y ≤ u gives
    u = u ∨ (x ∧ y) = (u ∨ x) ∧ (u ∨ y), so u = u ∨ x or u = u ∨ y."""
    return [u for u, upper in enumerate(order.cover_up) if upper.bit_count() == 1]


def prime_ideals_bruteforce(lattice):
    """Oracle: the generators, ascending, of the subsets that pass the ideal
    definition (``ideal_carriers``), are proper, and are prime by the
    definition: x ∧ y in the ideal puts x or y in it."""
    if lattice.n > BRUTE_FORCE_IDEAL_LIMIT:
        raise BoundsTooLarge(f"brute-force prime-ideal scan capped at {BRUTE_FORCE_IDEAL_LIMIT}")
    full, meet = (1 << lattice.n) - 1, lattice.meet
    return sorted(
        ideal_generator(lattice, mask)
        for mask in ideal_carriers(lattice)
        if mask != full
        and all(
            not (mask >> meet[x][y]) & 1 or (mask >> x) & 1 or (mask >> y) & 1
            for x in range(lattice.n)
            for y in range(x, lattice.n)
        )
    )


def join_irreducibles(lattice):
    """Non-bottom elements that are not joins of two strictly smaller ones:
    those with exactly one lower cover c, as every element below j other
    than j lies below c, and two lower covers join to j."""
    return [j for j, lower in enumerate(lattice.cover_down) if lower.bit_count() == 1]


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class LatticeHom:
    source: FiniteLattice = field(repr=False)
    target: FiniteLattice = field(repr=False)
    mapping: tuple


def validate_lattice_hom(hom):
    """Check preservation of bottom, top, meet and join; a meet or join
    failure names the first (a, b) in row-major order with
    f(a · b) ≠ f(a) · f(b).  Only a < b is scanned: on the diagonal both
    sides are f(a) (the tables are idempotent), and as both tables are
    symmetric a failing (a, b) with a > b comes after the failing (b, a)."""
    L, M, f = hom.source, hom.target, hom.mapping
    if len(f) != L.n:
        return StructReport.failed("total", message="mapping is not total")
    for name, a, b in (("bottom", L.bot, M.bot), ("top", L.top, M.top)):
        if f[a] != b:
            return StructReport.failed(name, witness=f[a])
    for name, op_L, op_M in (("meet", L.meet, M.meet), ("join", L.join, M.join)):
        for a, b in combinations(range(L.n), 2):
            if f[op_L[a][b]] != op_M[f[a]][f[b]]:
                return StructReport.failed(name, witness=(a, b))
    return StructReport.passed()


def is_lattice_iso(hom):
    if not validate_lattice_hom(hom).ok:
        return False
    if sorted(hom.mapping) != list(range(hom.target.n)):
        return False
    inverse = inverse_permutation(hom.mapping)
    return validate_lattice_hom(LatticeHom(hom.target, hom.source, inverse)).ok


def lattice_isos(L, M):
    """Every lattice isomorphism L → M, one per automorphism of M.

    Fix one minimiser Q of ``L.canonical_orderings()``.  A bijection h
    is an order isomorphism iff h∘Q has in M the code Q has in L, as
    h(Q[i]) ≤ h(Q[j]) iff Q[i] ≤ Q[j].  Isomorphic posets have the same
    least code, so that holds iff the signatures agree and h∘Q is one of M's
    minimisers Q′, that is h = Q[i] ↦ Q′[i].  An order isomorphism of
    lattices is a lattice isomorphism, as meet and join are the order's
    infimum and supremum; each one is re-checked anyway."""
    signature, (first, *_) = L.canonical_orderings()
    target, minimisers = M.canonical_orderings()
    if signature != target:
        return
    position = inverse_permutation(first)
    for image in minimisers:
        hom = LatticeHom(L, M, tuple(image[i] for i in position))
        if not is_lattice_iso(hom):
            raise InvariantViolation("order isomorphism found is not a lattice isomorphism")
        yield hom


def enumerate_lattice_homs(L, M):
    """All bound-preserving lattice homomorphisms L → M, in lexicographic
    order of their values along ``L.linear_extension()``.

    Birkhoff duality reads them off the join-irreducibles J(L) and J(M).
    In a finite distributive lattice each join-irreducible j is join-prime
    (j ≤ x ∨ y gives j ≤ x or j ≤ y; see ``build_lattice``), so
    J(x) = {j ∈ J : j ≤ x} sends ∧ to ∩ and ∨ to ∪, and x = ⋁J(x) makes
    x ↦ J(x) one to one.  A hom h gives a monotone g: J(M) → J(L), and
    each monotone g gives the hom h_g(a) = ⋁D(a), D(a) = {j : g(j) ≤ a}:

    - h ↦ g.  For j ∈ J(M), F = {a : j ≤ h(a)} is an up-set closed under ∧,
      holds ⊤ and misses ⊥, as h keeps ∧ and the bounds; a ∨ b ∈ F gives
      a ∈ F or b ∈ F, as h keeps ∨ and j is join-prime.  So F is a prime
      filter, ↑g(j) for its least member g(j), which is join-prime and not
      ⊥, so join-irreducible.  For j′ ≤ j, F lies in the filter of j′, so
      g(j′) ≤ g(j).  And h(a) = ⋁J(h(a)) = ⋁D(a), so g determines h.
    - g ↦ h_g.  D(a) is a down-set of J(M), as g is monotone, so
      J(h_g(a)) = D(a): a join-prime j ≤ ⋁D(a) lies below a member of
      D(a).  D(⊥) = ∅ and D(⊤) = J(M), so h_g keeps the bounds.
      D(a ∧ b) = D(a) ∩ D(b), and D(a ∨ b) = D(a) ∪ D(b) as each g(j) is
      join-prime, so J(h_g(a ∧ b)) = J(h_g(a) ∧ h_g(b)), and so for ∨;
      as x ↦ J(x) is one to one, h_g keeps ∧ and ∨.
    - g ↦ h_g ↦ g is the identity: {a : j ≤ h_g(a)} = {a : j ∈ D(a)} = ↑g(j).

    The maps g are built along M's linear extension, so every j′ < j is
    placed before j, and j takes each c ∈ J(L) above the images of the
    placed j′ ≤ j.  h_g(a) is the x with J(x) = D(a), and each h is
    re-checked by ``validate_lattice_hom``.
    """
    irr_L = join_irreducibles(L)
    irr_M = sorted(join_irreducibles(M), key=M.linear_extension().index)
    maps = [()]
    for k, j in enumerate(irr_M):
        lower = [i for i in range(k) if M.leq(irr_M[i], j)]
        maps = [g + (c,) for g in maps for c in irr_L if all(L.leq(g[i], c) for i in lower)]
    irr_mask = mask_of(irr_M)
    element = {M.down[x] & irr_mask: x for x in range(M.n)}
    out = []
    for g in maps:
        d_masks = [0] * L.n  # d_masks[a] is the mask of D(a)
        for j, c in zip(irr_M, g):
            for a in bits(L.up[c]):
                d_masks[a] |= 1 << j
        hom = LatticeHom(L, M, tuple(element[d] for d in d_masks))
        if not validate_lattice_hom(hom).ok:
            raise InvariantViolation("a monotone map of join-irreducibles gave no lattice hom")
        out.append(hom)
    order = L.linear_extension()
    return sorted(out, key=lambda h: [h.mapping[a] for a in order])


# ---------------------------------------------------------------------------
# the classical spectrum (oracle layer for the duality module)


def classical_spec(boolean_lattice):
    """Spectrum topology of a Boolean lattice over its prime ideals.

    Opens are generated by the sets of prime ideals not containing a fixed
    ideal; finite ideals are principal, so generators are indexed by elements
    and a prime ideal ↓u by its generator u.
    """
    primes = prime_generators(boolean_lattice)
    down = boolean_lattice.down
    gens = []
    for a in range(boolean_lattice.n):
        gens.append(mask_of(k for k, u in enumerate(primes) if not (down[u] >> a) & 1))
    return primes, gens
