"""d-ideals, d-filters and prime d-ideals as maps into the four-element
object, and the d-frame of ideals, on which the equivalence between
d-Boolean algebras and compact zero-dimensional d-frames collapses.

The codomain object has carrier {0, tt, ff, 1}.  Values are encoded in two
bits, bit 0 the tt-part and bit 1 the ff-part, so the information order is
bitwise inclusion, join is OR and meet is AND.  The logic order on the
codomain (ff at the bottom, tt at the top, 0 and 1 incomparable) is that of
``dlattice.bool_dlattice``, read through ``b_to_bool_pid``.

Out of scope: maximal d-filters need not be prime, but the standard witness
lives on the unit square [0,1]×[0,1] (pairing a with 1-a; the filter pair
((0,1], (0,1]) is maximal yet not prime).  That structure is infinite and
not representable here; at finite scale maximal-disjoint filter pairs are
prime, since a prime d-ideal lies between every d-filter map and every
d-ideal map above it (the sandwich property; ``tests/`` decides it).

Every enumeration of maps here is one mask test over generator pairs and
calls no map validator (proofs in the docstrings): ``_covering_pairs`` for
d-ideal and d-filter maps, two bit tests per cell of the coordinate
record's prime grid (``dlattice.CoordinateTables.prime_cells``) for prime
d-ideals.
A finite ideal or filter is principal, so a d-ideal or d-filter is held
as its map or as the generator pair (u, v) of its zero or one sets.
"""

from dataclasses import dataclass, field
from itertools import product
from operator import and_, or_

from .dlattice import (
    DBooleanAlgebra,
    DLattice,
    bool_dlattice,
    coordinate_tables,
    covered_pairs,
    d_complemented_sides,
    require_valid,
    step,
    validate_carrier_hom,
    validate_dlattice,
)
from .errors import CoveringViolation
from .lattice import (
    FiniteLattice,
    bits,
    extreme_of,
    ideal_generator,
    low_bit,
    mask_of,
    prime_generators,
)
from .report import StructReport

B0, BTT, BFF, B1 = 0, 1, 2, 3
B_NAMES = {B0: "0", BTT: "tt", BFF: "ff", B1: "1"}


def b_to_bool_pid(v):
    """Translate a two-bit value to a pair id of the library constant."""
    return (v & 1) * 2 + (v >> 1)


@dataclass(frozen=True)
class BMap:
    """Total map from a d-lattice carrier into {0, tt, ff, 1}."""

    dlattice: DLattice = field(repr=False, compare=False)
    values: tuple

    def __call__(self, p):
        return self.values[p]

    def value_at(self, a, b):
        return self.values[self.dlattice.pid(a, b)]

    def on_plus(self, a):
        """Value on the one-sided element (a, 0)."""
        return self.value_at(a, self.dlattice.minus.bot)

    def on_minus(self, b):
        return self.value_at(self.dlattice.plus.bot, b)

    def zero_set_plus(self):
        return mask_of(a for a in range(self.dlattice.plus.n) if self.on_plus(a) == B0)

    def zero_set_minus(self):
        return mask_of(b for b in range(self.dlattice.minus.n) if self.on_minus(b) == B0)

    def leq(self, other):
        """Pointwise comparison in the information order of the codomain."""
        return all(x | y == y for x, y in zip(self.values, other.values))


def require_covering(dl, plus, minus, ones):
    """Raise ``CoveringViolation`` unless the coordinate sets plus and minus
    (bitmasks) cover tot when ``ones`` (the one sets of a d-filter map),
    else con (the zero sets of a d-ideal map): every such pair (a, b) has
    a ∈ plus or b ∈ minus."""
    required, what = (dl.tot_mask, "total") if ones else (dl.con_mask, "consistent")
    # the lowest uncovered pair id is the first pair a scan would meet
    uncovered = required & ~covered_pairs(dl.plus.n, dl.minus.n, plus, minus)
    if uncovered:
        a, b = dl.unpid(low_bit(uncovered))
        raise CoveringViolation(
            f"{what} pair ({dl.plus.labels[a]},{dl.minus.labels[b]}) not covered",
            witness=(a, b),
        )


def four_case_values(dl, tt_rows, ff_columns):
    """Per pair id (a, b), the tt bit iff a ∈ tt_rows and the ff bit iff
    b ∈ ff_columns (coordinate bitmasks)."""
    ff_row = tuple(BFF if (ff_columns >> b) & 1 else 0 for b in range(dl.minus.n))
    tt_row = tuple(BTT | v for v in ff_row)
    values = []
    for a in range(dl.plus.n):
        values.extend(tt_row if (tt_rows >> a) & 1 else ff_row)
    return tuple(values)


def filter_generators(f):
    """The generators (u, v) of the one sets of a d-filter map, read at
    a ∨ ff and tt ∨ b: the least members of {a : f(a, top) = 1} and of
    {b : f(top, b) = 1}.  Raises ValueError when either has none."""
    dl = f.dlattice
    plus_mask = mask_of(a for a in range(dl.plus.n) if f.value_at(a, dl.minus.top) == B1)
    minus_mask = mask_of(b for b in range(dl.minus.n) if f.value_at(dl.plus.top, b) == B1)
    gp, gm = extreme_of(plus_mask, dl.plus.up), extreme_of(minus_mask, dl.minus.up)
    if gp is None or gm is None:
        raise ValueError("subset is not a principal filter")
    return gp, gm


# ---------------------------------------------------------------------------
# validators


# per two-bit value, the binary digit of its tt bit and of its ff bit
_TT_DIGIT = bytes.maketrans(bytes((B0, BTT, BFF, B1)), b"0101")
_FF_DIGIT = bytes.maketrans(bytes((B0, BTT, BFF, B1)), b"0011")


def _bit_planes(bmap):
    """Pair-id masks of the pairs whose value has its tt bit / its ff bit
    set: the values, highest pair id first, read as binary digits."""
    raw = bytes(reversed(bmap.values))
    return int(raw.translate(_TT_DIGIT), 2), int(raw.translate(_FF_DIGIT), 2)


def _empty_or_principal(mask, steps):
    """Whether a pair set is empty or ↓m (``steps`` downward) / ↑m (upward)
    for one pair m: closed under a cover step, with at most one member
    that has no step inside the set (see the ``dlattice`` step kernel)."""
    beyond = step(mask, steps)
    extremal = mask & ~beyond
    return beyond & ~mask == 0 and extremal & (extremal - 1) == 0


def _first_unpreserved(dl, bmap, op, combine):
    """The failed report naming the first pair of pairs, in row-major order
    of (a, a2, b, b2), at which bmap does not preserve ``op`` ("join" or
    "meet"), computed on the codomain by ``combine``; or None."""
    nm, values = dl.minus.n, bmap.values
    plus_op, minus_op = getattr(dl.plus, op), getattr(dl.minus, op)
    for a, a2, b, b2 in product(range(dl.plus.n), range(dl.plus.n), range(nm), range(nm)):
        p, q = a * nm + b, a2 * nm + b2
        if values[plus_op[a][a2] * nm + minus_op[b][b2]] != combine(values[p], values[q]):
            return StructReport.failed(f"{op}-preservation", witness=(dl.pair_label(p), dl.pair_label(q)))
    return None


def validate_d_ideal_map(dl, bmap):
    """Literal clauses: g(tt) ≤ tt, g(ff) ≤ ff, g(con) avoids 1, g preserves
    finite joins.  (g(0)=0 follows: joins make g monotone, so g(0) ≤ tt ∧ ff.)

    Join is bitwise OR on the codomain, so g preserves binary joins iff
    each bit plane χ of g (a map to the two-element lattice) does, and χ
    does iff its zero set Z is empty or an ideal.  If χ preserves joins it
    is monotone (p ≤ q gives χ(q) = χ(p) ∨ χ(q)), so Z is a down-set, and
    closed under joins.  Conversely, for a join-closed down-set Z, p ∨ q lies
    in Z iff p and q both do, which is χ(p ∨ q) = χ(p) ∨ χ(q).  A nonempty
    finite down-set is join-closed iff it has one maximal member (the join
    of all members; and a down-set with one maximal member m is ↓m).  So
    the clause is decided by the step kernel; the scan over all pairs of
    pairs (``_first_unpreserved``) runs only to name the first failing
    pair."""
    return _validate_map(dl, bmap, True)


def validate_d_filter_map(dl, bmap):
    """Literal clauses: f(tt) ≥ tt, f(ff) ≥ ff, f(tot) avoids 0, f preserves
    finite meets.

    Dually to ``validate_d_ideal_map`` (meet is bitwise AND), f preserves
    binary meets iff the one set of each bit plane is empty or a filter:
    an up-set with at most one minimal member.  The scan over all pairs of
    pairs runs only to name the first failing pair."""
    return _validate_map(dl, bmap, False)


def _validate_map(dl, bmap, ideal):
    """The clauses of a d-ideal map (``ideal`` true) or of a d-filter map,
    read on the near set of each bit plane: its zero set for an ideal map,
    its one set for a filter map.  g(tt) ≤ tt iff tt lies in the near set
    of the ff plane, and g(ff) ≤ ff iff ff lies in that of the tt plane;
    f(tt) ≥ tt and f(ff) ≥ ff read each bound in its own plane.  A pair in
    neither near set is sent to the far value, 1 or 0."""
    tables, (tt, ff) = coordinate_tables(dl), _bit_planes(bmap)
    if ideal:
        full = (1 << dl.size) - 1
        tt, ff, steps = full & ~tt, full & ~ff, tables.down_steps
        letter, order, kept, mask, word, far, op, combine = "g", "<=", "con", dl.con_mask, "consistent", 1, "join", or_
    else:
        steps = tables.up_steps
        letter, order, kept, mask, word, far, op, combine = "f", ">=", "tot", dl.tot_mask, "total", 0, "meet", and_
    for name, p, near in zip(("tt", "ff"), (dl.tt, dl.ff), (ff, tt) if ideal else (tt, ff)):
        if not (near >> p) & 1:
            return StructReport.failed(f"{letter}({name}){order}{name}", witness=B_NAMES[bmap(p)])
    sent_far = mask & ~(tt | ff)
    if sent_far:
        return StructReport.failed(
            f"{letter}({kept})", witness=dl.labels_of(low_bit(sent_far)), message=f"a {word} pair is sent to {far}"
        )
    principal = _empty_or_principal(tt, steps) and _empty_or_principal(ff, steps)
    bad = None if principal else _first_unpreserved(dl, bmap, op, combine)
    return bad or StructReport.passed(f"valid d-{'ideal' if ideal else 'filter'} map")


def is_prime_d_ideal(dl, bmap):
    """Prime ⟺ simultaneously a d-ideal map and a d-filter map."""
    return validate_d_ideal_map(dl, bmap).ok and validate_d_filter_map(dl, bmap).ok


def is_hom_to_bool_object(dl, bmap):
    """Independent characterization: a d-lattice homomorphism into the
    four-element object (used to cross-check the two-validator test)."""
    target = bool_dlattice()
    values = [b_to_bool_pid(v) for v in bmap.values]
    return validate_carrier_hom(dl, target, values).ok


# ---------------------------------------------------------------------------
# enumeration of prime d-ideals


def enumerate_prime_d_ideals(dl):
    """All prime d-ideals: the four-case maps g of the pairs (↓u, ↓v) of
    prime ideals of the coordinate lattices that cover con and avoid tot,
    in order of (u, v).  No validator runs; the proof follows.

    A prime d-ideal is a d-ideal map that is also a d-filter map.  The
    d-ideal maps are the four-case maps of the (↓u, ↓v) that cover con (see
    ``enumerate_d_ideal_maps``): g has its tt bit at (a, b) iff a ∉ ↓u and
    its ff bit iff b ∉ ↓v.  Such a g is then a d-filter map iff:

    - f(tt) ≥ tt and f(ff) ≥ ff: the tt bit at (top, bot) is set iff
      top ∉ ↓u, that is u ≠ top, and the ff bit at (bot, top) iff v ≠ top;
    - f(tot) avoids 0: no total pair lies in ↓u × ↓v, which is
      ``tot & rows_u & cols_v == 0``;
    - g preserves meets: the one set of the tt plane is (P ∖ ↓u) × M, an
      up-set, which is principal iff P ∖ ↓u is (it is ↑(c, bot) iff
      P ∖ ↓u = ↑c), and nonempty as u ≠ top; so the plane passes
      ``_empty_or_principal`` iff P ∖ ↓u has a least element, that is iff
      ↓u is a prime ideal (see ``lattice.prime_generators``).  The ff
      plane, with one set P × (M ∖ ↓v), works the same way.

    A prime ideal is proper, so the first clause holds for every prime pair.
    ``prime_pairs`` decides covering and avoiding by one witness bit each,
    which is exact when con is a down-set and tot an up-set: dl must be a
    valid d-lattice, as every caller checks first.  On d-Boolean algebras
    ``_primes_structural`` is the independent reference.
    """
    return _primes_bruteforce(dl)


def _primes_structural(A):
    """Reference enumeration on a d-Boolean algebra: per prime ideal ↓u of
    the plus lattice, the d-ideal map with zero sets ↓u and †(P ∖ ↓u),
    which raises unless †(P ∖ ↓u) is an ideal and the pair covers con.  It
    is compared with ``enumerate_prime_d_ideals`` (the
    ``prime-count-bijection`` row of ``suites``)."""
    if not isinstance(A, DBooleanAlgebra):
        raise ValueError("structural enumeration requires a d-Boolean algebra")
    full = (1 << A.plus.n) - 1
    out = []
    for u in prime_generators(A.plus):
        v = ideal_generator(A.minus, mask_of(A.dagger[a] for a in bits(full & ~A.plus.down[u])))
        require_covering(A, A.plus.down[u], A.minus.down[v], False)
        out.append(ideal_map(A, u, v))
    return out


def _primes_bruteforce(dl):
    """The scan of ``enumerate_prime_d_ideals``."""
    return [ideal_map(dl, u, v) for u, v in prime_pairs(dl)]


def ideal_map(dl, u, v):
    """The four-case map with zero sets ↓u and ↓v."""
    return BMap(dl, four_case_values(dl, ~dl.plus.down[u], ~dl.minus.down[v]))


def _covering_pairs(required, plus_masks, minus_masks):
    """The mask test behind the d-ideal and d-filter map enumerations: the
    (u, v), in order of u and then v over the (generator, covered-pair
    mask) entries of ``plus_masks`` and ``minus_masks`` (see
    ``CoordinateTables``), whose masks together cover ``required``.  The
    prime pairs are picked by the witness bits of the record's prime grid
    instead (``prime_pairs``)."""
    return [
        (u, v)
        for u, rows_u in plus_masks
        for v, cols_v in minus_masks
        if not required & ~(rows_u | cols_v)
    ]


def prime_pairs(dl):
    """The generators (u, v) of the prime d-ideals, in the order of
    ``enumerate_prime_d_ideals``: the pairs of prime generators whose
    (↓u, ↓v) covers con and avoids tot, picked by two bit tests per cell
    of dl's coordinate record (``CoordinateTables.prime_cells``, which
    proves them).  They hold when con is a down-set and tot an up-set, as
    on every valid d-lattice, so callers validate dl first."""
    return [cell[:2] for cell in coordinate_tables(dl).prime_cells(dl.con_mask, dl.tot_mask)]


def prime_pair_opens(dl, pairs):
    """φ₊(a) = {k : a ≰ u_k} and φ₋(b) = {k : b ≰ v_k}, bitmasks over the
    indices k of a list of generators (u_k, v_k) from ``prime_pairs``: the
    subbasic opens of their primes.  The four-case map of (u, v) has value
    tt at (a, 0) iff a ∉ ↓u (its ff bit there is clear, as 0 ∈ ↓v), and
    value ff at (0, b) iff b ∉ ↓v."""
    P, M = dl.plus, dl.minus
    return (
        tuple(mask_of(k for k, (u, _) in enumerate(pairs) if not (P.down[u] >> a) & 1) for a in range(P.n)),
        tuple(mask_of(k for k, (_, v) in enumerate(pairs) if not (M.down[v] >> b) & 1) for b in range(M.n)),
    )


def enumerate_d_ideal_maps(dl):
    """All d-ideal maps: the four-case maps g of the pairs (↓u, ↓v) that
    cover con, in order of (u, v).  No validator runs; the proof follows.

    The zero sets of a d-ideal map are ideals of finite lattices, so
    principal, and it is the four-case map of them: g has its tt bit at
    (a, b) iff a ∉ ↓u and its ff bit iff b ∉ ↓v.  Such a g is a d-ideal
    map iff every consistent pair has a coordinate in ↓u or ↓v (else it is
    sent to 1).  The other clauses hold for every (u, v): the ff bit at
    tt = (top, bot) and the tt bit at ff = (bot, top) are clear, as bot lies
    in ↓v and in ↓u, and the zero sets of the two bit planes,
    ↓u × M = ↓(u, top) and P × ↓v = ↓(top, v), are principal, so g
    preserves joins (see ``validate_d_ideal_map``)."""
    return [ideal_map(dl, u, v) for u, v in _covering_pairs(dl.con_mask, *coordinate_tables(dl).down_masks)]


def enumerate_d_filter_maps(dl):
    """All d-filter maps: the four-case maps f of the pairs (↑u, ↑v) that
    cover tot, in order of (u, v).  No validator runs: dually to
    ``enumerate_d_ideal_maps``, f has its tt bit at (a, b) iff a ∈ ↑u and
    its ff bit iff b ∈ ↑v, the one sets of a d-filter map are principal
    filters, and f(tot) avoids 0 iff (↑u, ↑v) covers tot.  The tt bit at
    tt = (top, bot) and the ff bit at ff = (bot, top) are set, as top lies
    in ↑u and in ↑v, and the one sets of the bit planes, ↑u × M = ↑(u, bot)
    and P × ↑v = ↑(bot, v), are principal, so f preserves meets (see
    ``validate_d_filter_map``)."""
    up_plus, up_minus = dl.plus.up, dl.minus.up
    return [
        BMap(dl, four_case_values(dl, up_plus[u], up_minus[v]))
        for u, v in _covering_pairs(dl.tot_mask, *coordinate_tables(dl).up_masks)
    ]


# ---------------------------------------------------------------------------
# the d-frame of ideals


def idl_dframe(dl):
    """d-frame of ideals, on which the equivalence between d-Boolean
    algebras and compact zero-dimensional d-frames (``idl`` one way, ``dB``
    the other) collapses.  Lemma, for a valid finite d-lattice dl:

    1. idl(dl) is dl relabelled.  Every ideal of a finite lattice is ↓i for
       one i, and i ↦ ↓i is an order isomorphism onto the ideals under
       inclusion (↓i ⊆ ↓j iff i ≤ j), so each coordinate lattice is L's
       order under the ↓ labels, with L's bounds and tables.  The ideal pair
       (↓i, ↓j) is consistent iff every pair of the block ↓i × ↓j is, and
       total iff some pair of it is.  con is a down-set and (i, j) the top
       of the block, so the block lies in con iff (i, j) does; tot is an
       up-set and every pair of the block lies below (i, j), so the block
       meets tot iff (i, j) is total.  So con and tot are the input's own
       masks, and the unit η: a ↦ ↓a is the identity on indices.
    2. dl is compact: tot is Scott-open.  A directed subset of a finite
       lattice holds its own join, so Scott-open is up-set, which is the
       ``tot-upper-set`` clause of ``validate_dlattice``.
    3. dl is zero-dimensional (every element is the join of the
       d-complemented elements below it) iff every element is d-complemented
       iff the embeddings of ``dB(dl)`` are the identity.  The d-complemented
       elements of the plus side are closed under finite joins: ff = (⊥, ⊤)
       lies in con ∩ tot, and con and tot are closed under logic join, which
       takes (a, b) and (a′, b′) to (a ∨ a′, b ∧ b′); on the minus side, tt
       and logic meet.  So the join of the d-complemented elements below x
       is d-complemented, and it is x iff x is.  ``dB`` keeps exactly the
       d-complemented elements, in index order, so then dB(dl) is dl, and
       ε(↓x) = ⋁↓x and κ(x) = ↓x ∩ dB are the identity on indices.

    The validation stays: where the input's con is not a down-set or its
    tot not an up-set, its masks differ from those of the block definition,
    and the input is rejected instead of repaired."""

    def ideal_lattice(L):
        return FiniteLattice(L.relabeled(f"↓{lab}" for lab in L.labels), L.bot, L.top, L.meet, L.join)

    df = DLattice(ideal_lattice(dl.plus), ideal_lattice(dl.minus), dl.con_mask, dl.tot_mask)
    require_valid(validate_dlattice(df), "idl")
    return df


def is_zero_dimensional_dframe(df):
    """Every element is the join of the d-complemented elements below it,
    which on a finite d-lattice is every element being d-complemented (see
    ``idl_dframe``)."""
    bplus, bminus = d_complemented_sides(df)
    return len(bplus) == df.plus.n and len(bminus) == df.minus.n
