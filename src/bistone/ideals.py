"""d-ideals, d-filters and prime d-ideals as maps into the four-element
object, the d-frame of ideals, and both halves of the equivalence between
d-Boolean algebras and compact zero-dimensional d-frames.

The codomain object has carrier {0, tt, ff, 1}.  Values are encoded in two
bits, bit 0 the tt-part and bit 1 the ff-part, so the information order is
bitwise inclusion, join is OR and meet is AND.  The logic order on the
codomain (ff at the bottom, tt at the top, 0 and 1 incomparable) is the
hard-coded table B_LOGIC_LEQ.

Out of scope: maximal d-filters need not be prime, but the standard witness
lives on the unit square [0,1]×[0,1] (pairing a with 1-a; the filter pair
((0,1], (0,1]) is maximal yet not prime).  That structure is infinite and
not representable here; at finite scale maximal-disjoint filter pairs are
prime, which is exactly what the sandwich search below exploits.
"""

from dataclasses import dataclass, field

import numpy as np

from .dlattice import (
    DBooleanAlgebra,
    DLattice,
    DLatticeHom,
    Coreflection,
    bool_dlattice,
    dB,
    d_complemented_sides,
    require_valid,
    validate_carrier_hom,
    validate_dlattice,
    validate_dlattice_hom,
)
from .errors import CoveringViolation, InvariantViolation, NoSandwich, NotZeroDimensional
from .lattice import (
    Filter,
    Ideal,
    bits,
    build_lattice,
    first_index,
    ideal_from_carrier,
    prime_ideals,
    principal_filter,
    principal_ideal,
)
from .report import StructReport

B0, BTT, BFF, B1 = 0, 1, 2, 3
B_NAMES = {B0: "0", BTT: "tt", BFF: "ff", B1: "1"}
B_JSON = {B0: 0, BTT: "tt", BFF: "ff", B1: 1}
B_VALUES = {v: k for k, v in B_NAMES.items()}

# logic order of the codomain: ff ⊏ 0 ⊏ tt and ff ⊏ 1 ⊏ tt
B_LOGIC_LEQ = frozenset(
    [(x, x) for x in (B0, BTT, BFF, B1)]
    + [(BFF, B0), (BFF, B1), (BFF, BTT), (B0, BTT), (B1, BTT)]
)


def b_info_leq(x, y):
    return x | y == y


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

    def matrix(self):
        dl = self.dlattice
        return np.asarray(self.values, dtype=np.uint8).reshape(dl.plus.n, dl.minus.n)

    def on_plus(self, a):
        """Value on the one-sided element (a, 0)."""
        return self.value_at(a, self.dlattice.minus.bot)

    def on_minus(self, b):
        return self.value_at(self.dlattice.plus.bot, b)

    def zero_set_plus(self):
        dl = self.dlattice
        mask = 0
        for a in range(dl.plus.n):
            if self.on_plus(a) == B0:
                mask |= 1 << a
        return mask

    def zero_set_minus(self):
        dl = self.dlattice
        mask = 0
        for b in range(dl.minus.n):
            if self.on_minus(b) == B0:
                mask |= 1 << b
        return mask

    def leq(self, other):
        """Pointwise comparison in the information order of the codomain."""
        return all(x | y == y for x, y in zip(self.values, other.values))

    def to_json(self):
        return {
            "kind": "prime-d-ideal",
            "version": 1,
            "values": [B_JSON[v] for v in self.values],
        }


@dataclass(frozen=True)
class DIdealPair:
    """Ideal pair with the consistency covering condition."""

    iplus: Ideal
    iminus: Ideal


@dataclass(frozen=True)
class DFilterPair:
    fplus: Filter
    fminus: Filter


def _covered(dl, zplus, zminus):
    """Pair ids (a, b) with a in zplus (the whole row) or b in zminus."""
    nm = dl.minus.n
    row = (1 << nm) - 1
    covered = 0
    for a in range(dl.plus.n):
        covered |= (row if (zplus >> a) & 1 else zminus) << (a * nm)
    return covered


def d_ideal_to_map(dl, pair):
    """The unique d-ideal map with the given zero sets (four-case table)."""
    zplus, zminus = pair.iplus.carrier, pair.iminus.carrier
    nm = dl.minus.n
    # the lowest uncovered pair id is the first consistent pair a scan would meet
    uncovered = dl.con_mask & ~_covered(dl, zplus, zminus)
    if uncovered:
        a, b = dl.unpid((uncovered & -uncovered).bit_length() - 1)
        raise CoveringViolation(
            f"consistent pair ({dl.plus.labels[a]},{dl.minus.labels[b]}) not covered",
            witness=(a, b),
        )
    minus_row = tuple(0 if (zminus >> b) & 1 else BFF for b in range(nm))
    values = []
    for a in range(dl.plus.n):
        plus_value = 0 if (zplus >> a) & 1 else BTT
        values.extend(plus_value | v for v in minus_row)
    return BMap(dl, tuple(values))


def d_filter_to_map(dl, pair):
    """The unique d-filter map with the given one sets (four-case table)."""
    for p in bits(dl.tot_mask):
        a, b = dl.unpid(p)
        if not (a in pair.fplus or b in pair.fminus):
            raise CoveringViolation(
                f"total pair ({dl.plus.labels[a]},{dl.minus.labels[b]}) not covered",
                witness=(a, b),
            )
    values = []
    for a in range(dl.plus.n):
        for b in range(dl.minus.n):
            v = (BTT if a in pair.fplus else 0) | (BFF if b in pair.fminus else 0)
            values.append(v)
    return BMap(dl, tuple(values))


def d_ideal_pair_of_map(g):
    """Recover the ideal pair of a d-ideal map (zero sets per side)."""
    dl = g.dlattice
    return DIdealPair(
        ideal_from_carrier(dl.plus, g.zero_set_plus()),
        ideal_from_carrier(dl.minus, g.zero_set_minus()),
    )


def d_filter_pair_of_map(f):
    """Recover the filter pair of a d-filter map (one sets of a ∨ ff, tt ∨ b)."""
    dl = f.dlattice
    plus_mask = 0
    for a in range(dl.plus.n):
        if f.value_at(a, dl.minus.top) == B1:
            plus_mask |= 1 << a
    minus_mask = 0
    for b in range(dl.minus.n):
        if f.value_at(dl.plus.top, b) == B1:
            minus_mask |= 1 << b
    gp = _least_in_mask(dl.plus, plus_mask)
    gm = _least_in_mask(dl.minus, minus_mask)
    return DFilterPair(Filter(dl.plus, gp, plus_mask), Filter(dl.minus, gm, minus_mask))


def _least_in_mask(lattice, mask):
    for m in bits(mask):
        if mask & ~lattice.up[m] == 0:
            return m
    raise ValueError("subset is not a principal filter")


# ---------------------------------------------------------------------------
# validators


def validate_d_ideal_map(dl, bmap):
    """Literal clauses: g(tt) ≤ tt, g(ff) ≤ ff, g(con) avoids 1, g preserves
    finite joins.  (g(0)=0 follows: joins make g monotone, so g(0) ≤ tt ∧ ff.)"""
    V = bmap.matrix()
    if bmap(dl.tt) & BFF:
        return StructReport.failed("g(tt)<=tt", witness=B_NAMES[bmap(dl.tt)])
    if bmap(dl.ff) & BTT:
        return StructReport.failed("g(ff)<=ff", witness=B_NAMES[bmap(dl.ff)])
    for p in bits(dl.con_mask):
        if bmap.values[p] == B1:
            return StructReport.failed(
                "g(con)", witness=dl.labels_of(p), message="a consistent pair is sent to 1"
            )
    lhs = V[dl.plus.join][:, :, dl.minus.join]
    rhs = V[:, None, :, None] | V[None, :, None, :]
    bad = first_index(lhs != rhs)
    if bad is not None:
        a, a2, b, b2 = bad
        return StructReport.failed(
            "join-preservation",
            witness=(dl.pair_label(dl.pid(a, b)), dl.pair_label(dl.pid(a2, b2))),
        )
    return StructReport.passed("valid d-ideal map")


def validate_d_filter_map(dl, bmap):
    """Literal clauses: f(tt) ≥ tt, f(ff) ≥ ff, f(tot) avoids 0, f preserves
    finite meets."""
    V = bmap.matrix()
    if not bmap(dl.tt) & BTT:
        return StructReport.failed("f(tt)>=tt", witness=B_NAMES[bmap(dl.tt)])
    if not bmap(dl.ff) & BFF:
        return StructReport.failed("f(ff)>=ff", witness=B_NAMES[bmap(dl.ff)])
    for p in bits(dl.tot_mask):
        if bmap.values[p] == B0:
            return StructReport.failed(
                "f(tot)", witness=dl.labels_of(p), message="a total pair is sent to 0"
            )
    lhs = V[dl.plus.meet][:, :, dl.minus.meet]
    rhs = V[:, None, :, None] & V[None, :, None, :]
    bad = first_index(lhs != rhs)
    if bad is not None:
        a, a2, b, b2 = bad
        return StructReport.failed(
            "meet-preservation",
            witness=(dl.pair_label(dl.pid(a, b)), dl.pair_label(dl.pid(a2, b2))),
        )
    return StructReport.passed("valid d-filter map")


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


def enumerate_prime_d_ideals(dl, path="auto"):
    """All prime d-ideals, deterministic order.

    ``structural`` (d-Boolean only): one prime d-ideal per prime ideal of the
    plus lattice, the minus side obtained through the pairing.  ``brute``:
    every candidate four-case map of a principal ideal pair is passed through
    both literal validators; finite ideals are principal and every d-ideal is
    the four-case map of its zero sets, so this scan is exhaustive.
    """
    if path == "auto":
        path = "structural" if isinstance(dl, DBooleanAlgebra) else "brute"
    if path == "structural":
        return _primes_structural(dl)
    if path == "brute":
        return _primes_bruteforce(dl)
    raise ValueError(f"unknown path {path!r}")


def _primes_structural(A):
    if not isinstance(A, DBooleanAlgebra):
        raise ValueError("structural path requires a d-Boolean algebra")
    out = []
    for ip in prime_ideals(A.plus):
        comp = ((1 << A.plus.n) - 1) & ~ip.carrier
        minus_mask = 0
        for a in bits(comp):
            minus_mask |= 1 << A.dagger[a]
        im = ideal_from_carrier(A.minus, minus_mask)
        g = d_ideal_to_map(A, DIdealPair(ip, im))
        if not is_prime_d_ideal(A, g):
            raise InvariantViolation("structural prime d-ideal failed the two validators")
        out.append(g)
    return out


def _primes_bruteforce(dl):
    out = []
    all_plus, all_minus = (1 << dl.plus.n) - 1, (1 << dl.minus.n) - 1
    for u in range(dl.plus.n):
        below_u = dl.plus.down[u]
        for v in range(dl.minus.n):
            below_v = dl.minus.down[v]
            # cheap clauses first (each is one validator clause)
            if u == dl.plus.top or v == dl.minus.top:
                continue  # fails f(tt) >= tt / f(ff) >= ff
            if dl.con_mask & ~_covered(dl, below_u, below_v):
                continue  # a consistent pair would be sent to 1
            if dl.tot_mask & ~_covered(dl, all_plus & ~below_u, all_minus & ~below_v):
                continue  # a total pair, with both coordinates below, would be sent to 0
            candidate = d_ideal_to_map(
                dl, DIdealPair(principal_ideal(dl.plus, u), principal_ideal(dl.minus, v))
            )
            if is_prime_d_ideal(dl, candidate):
                out.append(candidate)
    return out


def enumerate_d_ideal_maps(dl):
    """All d-ideal maps, via their principal zero-set pairs."""
    out = []
    for u in range(dl.plus.n):
        for v in range(dl.minus.n):
            try:
                g = d_ideal_to_map(
                    dl, DIdealPair(principal_ideal(dl.plus, u), principal_ideal(dl.minus, v))
                )
            except CoveringViolation:
                continue
            if validate_d_ideal_map(dl, g).ok:
                out.append(g)
    return out


def enumerate_d_filter_maps(dl):
    out = []
    for u in range(dl.plus.n):
        for v in range(dl.minus.n):
            try:
                f = d_filter_to_map(
                    dl, DFilterPair(principal_filter(dl.plus, u), principal_filter(dl.minus, v))
                )
            except CoveringViolation:
                continue
            if validate_d_filter_map(dl, f).ok:
                out.append(f)
    return out


def prime_d_ideal_characterization(A, g):
    """On a d-Boolean algebra: a d-ideal map is prime iff its zero set and
    the pairing determine each other on both sides."""
    if not validate_d_ideal_map(A, g).ok:
        raise ValueError("characterization requires a valid d-ideal map")
    for a in range(A.plus.n):
        if (g.on_plus(a) == B0) != (g.on_minus(A.dagger[a]) == BFF):
            return False
    for b in range(A.minus.n):
        if (g.on_minus(b) == B0) != (g.on_plus(A.dagger_inv[b]) == BTT):
            return False
    return True


def prime_sandwich(dl, fmap, gmap):
    """A prime d-ideal h with f ≤ h ≤ g, for a d-filter map f below a
    d-ideal map g.

    Search is over prime ideals of the coordinate lattices that contain the
    zero sets of g and avoid the one sets of f, lowest generator first; the
    first pair already works, but every candidate is re-verified.
    """
    if not validate_d_filter_map(dl, fmap).ok:
        raise ValueError("first argument must be a d-filter map")
    if not validate_d_ideal_map(dl, gmap).ok:
        raise ValueError("second argument must be a d-ideal map")
    if not fmap.leq(gmap):
        raise ValueError("precondition f <= g (pointwise information order) fails")
    gplus, gminus = gmap.zero_set_plus(), gmap.zero_set_minus()
    fpair = d_filter_pair_of_map(fmap)
    fplus, fminus = fpair.fplus.carrier, fpair.fminus.carrier
    plus_candidates = [
        ip for ip in prime_ideals(dl.plus) if gplus & ~ip.carrier == 0 and ip.carrier & fplus == 0
    ]
    minus_candidates = [
        im for im in prime_ideals(dl.minus) if gminus & ~im.carrier == 0 and im.carrier & fminus == 0
    ]
    for ip in plus_candidates:
        for im in minus_candidates:
            try:
                h = d_ideal_to_map(dl, DIdealPair(ip, im))
            except CoveringViolation:
                continue
            if is_prime_d_ideal(dl, h) and fmap.leq(h) and h.leq(gmap):
                return h
    raise NoSandwich("no prime d-ideal between the given maps (suspected bug)")


# ---------------------------------------------------------------------------
# the d-frame of ideals


# Every finite d-lattice is a d-frame: every finite distributive lattice is
# a frame and finite Scott-openness of tot is the upper-set axiom.
DFrame = DLattice


def as_dframe(dl):
    df = DFrame(dl.plus, dl.minus, dl.con_mask, dl.tot_mask)
    require_valid(validate_dlattice(df), "as_dframe input")
    return df


def idl_dframe(dl):
    """d-frame of ideals.  Ideals of a finite lattice are the principal
    down-sets, indexed here by generator, so the coordinate lattices are
    rebuilt from carrier inclusion."""

    def ideal_lattice(L):
        leq = [[L.down[i] & ~L.down[j] == 0 for j in range(L.n)] for i in range(L.n)]
        return build_lattice([f"↓{lab}" for lab in L.labels], leq)

    plus = ideal_lattice(dl.plus)
    minus = ideal_lattice(dl.minus)
    # con/tot of the pair of principal ideals (↓i, ↓j): every / some pair of
    # the block down[i] × down[j] is consistent / total, read per plus row
    nm = dl.minus.n
    con_row, tot_row = dl.rows(dl.con_mask), dl.rows(dl.tot_mask)
    con = tot = 0
    for i in range(dl.plus.n):
        rows = list(bits(dl.plus.down[i]))
        for j, cols in enumerate(dl.minus.down):
            if all(con_row[a] & cols == cols for a in rows):
                con |= 1 << (i * nm + j)
            if any(tot_row[a] & cols for a in rows):
                tot |= 1 << (i * nm + j)
    df = DFrame(plus, minus, con, tot)
    require_valid(validate_dlattice(df), "idl")
    return df


def eta_unit(dl):
    """Principal-ideal embedding into the d-frame of ideals."""
    df = idl_dframe(dl)
    hom = DLatticeHom(dl, df, tuple(range(dl.plus.n)), tuple(range(dl.minus.n)))
    report = validate_dlattice_hom(hom)
    assert report.ok, report.message
    return df, hom


def eta_factorization(dl, target, f):
    """Unique d-frame map out of the ideal frame with f̄ ∘ η = f.

    f̄ sends an ideal to the join of the f-images of its members; finitely η
    is surjective, so uniqueness is immediate.
    """
    df, eta = eta_unit(dl)
    fbar_plus = tuple(
        target.plus.join_fold(f.fplus[a] for a in bits(dl.plus.down[i]))
        for i in range(dl.plus.n)
    )
    fbar_minus = tuple(
        target.minus.join_fold(f.fminus[b] for b in bits(dl.minus.down[j]))
        for j in range(dl.minus.n)
    )
    fbar = DLatticeHom(df, target, fbar_plus, fbar_minus)
    report = validate_dlattice_hom(fbar)
    assert report.ok, report.message
    composite = fbar.compose(eta)
    assert composite.fplus == tuple(f.fplus) and composite.fminus == tuple(f.fminus)
    return df, eta, fbar


def is_compact_dframe(df):
    """Finite Scott-openness of tot: the literal upper-set scan."""
    for p in bits(df.tot_mask):
        a, b = df.unpid(p)
        for a2 in bits(df.plus.up[a]):
            for b2 in bits(df.minus.up[b]):
                if not df.in_tot(df.pid(a2, b2)):
                    return False
    return True


def is_zero_dimensional_dframe(df):
    """Every element is the join of the d-complemented elements below it."""
    bplus, bminus = d_complemented_sides(df)
    for x in range(df.plus.n):
        if df.plus.join_fold(b for b in bplus if df.plus.leq(b, x)) != x:
            return False
    for y in range(df.minus.n):
        if df.minus.join_fold(b for b in bminus if df.minus.leq(b, y)) != y:
            return False
    return True


@dataclass(frozen=True)
class FrameAlgebraEquivalence:
    """Witness for DF ≅ idl(dB(DF)): the two mutually inverse homs."""

    coreflection: Coreflection
    ideal_frame: DFrame
    epsilon: DLatticeHom
    kappa: DLatticeHom


def epsilon_kappa(df):
    """ε(I) = ⋁I and κ(x) = ↓x ∩ dB; mutually inverse on compact
    zero-dimensional d-frames."""
    if not is_zero_dimensional_dframe(df):
        raise NotZeroDimensional("epsilon/kappa require a zero-dimensional d-frame")
    assert is_compact_dframe(df)
    cor = dB(df)
    idlA = idl_dframe(cor.algebra)
    eps = DLatticeHom(idlA, df, cor.embed_plus, cor.embed_minus)
    rep = validate_dlattice_hom(eps)
    assert rep.ok, rep.message

    pindex = {a: i for i, a in enumerate(cor.embed_plus)}
    mindex = {b: j for j, b in enumerate(cor.embed_minus)}
    kplus = []
    for x in range(df.plus.n):
        gen = df.plus.join_fold(a for a in cor.embed_plus if df.plus.leq(a, x))
        kplus.append(pindex[gen])
    kminus = []
    for y in range(df.minus.n):
        gen = df.minus.join_fold(b for b in cor.embed_minus if df.minus.leq(b, y))
        kminus.append(mindex[gen])
    kap = DLatticeHom(df, idlA, tuple(kplus), tuple(kminus))
    rep = validate_dlattice_hom(kap)
    assert rep.ok, rep.message

    eps_kap = eps.compose(kap)
    assert eps_kap.fplus == tuple(range(df.plus.n)), "ε ∘ κ must be the identity"
    assert eps_kap.fminus == tuple(range(df.minus.n))
    kap_eps = kap.compose(eps)
    assert kap_eps.fplus == tuple(range(idlA.plus.n)), "κ ∘ ε must be the identity"
    assert kap_eps.fminus == tuple(range(idlA.minus.n))
    return FrameAlgebraEquivalence(cor, idlA, eps, kap)


def d_complemented_ideals(dl):
    """d-complemented elements of the ideal frame, with the lemma cross-check:
    they are exactly the principal ideals on d-complemented elements."""
    df = idl_dframe(dl)
    idl_plus, idl_minus = d_complemented_sides(df)
    base_plus, base_minus = d_complemented_sides(dl)
    assert idl_plus == base_plus and idl_minus == base_minus, (
        "d-complemented ideals must be the principal ideals on d-complemented elements"
    )
    return {
        "plus": [(i, f"↓{dl.plus.labels[i]}") for i in idl_plus],
        "minus": [(j, f"↓{dl.minus.labels[j]}") for j in idl_minus],
    }
