"""d-lattices in product coordinates, d-complements and d-Boolean algebras.

A d-lattice is stored as its two coordinate lattices together with the
consistency and totality predicates as pair sets.  The identification of the
carrier with the coordinate product is lossless: a distributive lattice
with a complementary pair (tt, ff) is [0, tt] × [0, ff] under
a ↦ (a ∧ tt, a ∧ ff).  Carrier elements are flat pair ids
``a * n_minus + b``.  The order operations on the carrier are
coordinatewise, so a reader takes the coordinate lattices' ``[a][b]``
tables at the two coordinates of a pair id (``logic_formula_row`` reads one
coordinate lattice's tables so).  A pair set is built from its rows, one
minus-side mask per plus element (``pair_mask``).

The pair sets are int bitmasks over pair ids, and that is their only
representation: a ``DLattice`` is immutable once built, and every reader
works on the masks.  ``__setattr__`` raises, so ``__init__`` writes its
four slots through the slot descriptors' setters, bound once after the
class.  Being immutable, it can hold its own dual: the first
``duality.spectrum(dl)`` writes its result to the ``held_spectrum`` slot,
and every later call returns that object.  ``__init__`` leaves the slot
unset, so building a d-lattice costs nothing extra.

Scott-closedness of the consistency predicate degenerates to being a
down-set here: a directed set in a finite poset contains its own join (it
has a maximal element, which by directedness dominates every member), so
closure under directed joins is automatic for down-sets.

The step kernel moves a whole pair-id mask one cover step through the
carrier.  A cover in the product changes one coordinate by a cover and
keeps the other, so each Hasse edge of either coordinate lattice is a
(selector, shift): a minus edge selects a column (``col0 << b``) and shifts
within each row, a plus edge selects a row (``row0 << a * n_minus``) and
shifts by whole rows.  ``step(mask, steps)`` is then a few big-int ANDs and
shifts.  A pair set S is a down-set iff ``step(S, down)`` lies inside S
(every x ≤ y is a chain of covers), and the maximal members of a down-set
are ``S & ~step(S, down)``: a member below another member has an upper
cover inside S.  Up-sets and minimal members are the duals.

Logic meet (a1 ∧ a2, b1 ∨ b2) and logic join (a1 ∨ a2, b1 ∧ b2) are
monotone in the information order in both arguments.  So a down-set (con)
is closed under them iff the operations on its maximal members stay inside,
and an up-set (tot) iff the operations on its minimal members do.
``validate_dlattice`` decides the closure clauses with the step kernel and
logic closure on those members in one pass.  The lowest missing pair of
the closure (``closure``, steps to a fixpoint) and the member-pair scan
``first_escape`` run only to name the first failing pair.

The con–tot clause asks each consistent (a, b) to lie below every total
pair that shares a coordinate with it.  The pairs that share one but are
not above (a, b) are, in row a, the (a, b2) with b2 not above b and, in
column b, the (a2, b) with a2 not above a: ``(in_row[b] << a * n_minus) |
(in_column[a] << b)``, with one mask per coordinate element
(``CoordinateTables.not_above``).  Their union over the members of con is
the forbidden mask F(con), and the clause holds iff ``tot & F(con)`` is
zero: one AND.  Only when it is nonzero are the members walked, in pair-id
order, so that the first whose own mask meets tot names the witness.

What depends only on the two coordinate lattices is one record,
``CoordinateTables``, each table built on first read, shared by every pair
with the same two up rows (``_shared_tables``).  It is held on the lattice
pair, in the pair's entry of ``FiniteLattice.paired_tables`` beside the
pair's report memo (``_pair_entry``; ``coordinate_tables`` reads the record
from it): only a pair's first lookup builds a record.  The record keeps a
plain ``FinitePoset`` of each side, never the lattice, so no lattice is
reachable from its own ``paired_tables`` and a dropped one is freed at once.

Every clause but con–tot reads one predicate alone, so its verdict is a
function of the record, the side (con or tot) and that side's mask;
``validate_dlattice`` decides it once per (side, mask) and keeps it in the
record's ``con_verdicts`` or ``tot_verdicts``, a dict keyed by the mask
alone (``_side_verdict``), with F(con) when con passes.  A record is
shared by every coordinate pair with the same up rows, whatever their
labels, so a verdict holds pair ids, never labels.

The prime pairs of a d-lattice are picked in one place,
``CoordinateTables.prime_cells``: each cell of the record's grid of
prime-generator pairs carries two witness bits, one to test against con
and one against tot, with no memo per mask.

``validate_dlattice`` reads the pair's entry once, record and report memo
together, decides every clause for every call and ends with one cause in
pair ids: a failing side's (side, rank, witness), or for con–tot the first
failing consistent pair and the lowest total pair in its mask, or None for
a pass.  Only then are labels read: the labelled report of a cause
(``_report``) is built the first time the cause occurs on a lattice pair
and kept in the memo.  Most rejected candidates of a census share a few
causes per pair, so most calls build no report.  The memo stays off the
record, which other labellings of the same orders share; a report names
the labels of its own pair.

The d-Boolean clauses read order rows as well: a bijection † reverses the
order iff it maps the up row of each plus element a onto the down row of
†a, and then row a of con is the down row of †a and row a of tot its up
row (``_dagger_reversal_failure``, ``_dagger_masks``).  These pairing
clauses (``_pairing_failure``) give every d-lattice axiom but the one that
neither coordinate is trivial, so ``validate_dboolean`` decides them first
and runs ``validate_dlattice`` only when one fails or a coordinate is
trivial.

Hom validation is decided the same way.  ``_con_tot_failure`` tests each
source row of con (then tot) with one AND against the union of f₋'s
preimage masks over row f₊(a) of the target's, built once per value of f₊;
no pair is walked, as the lowest escaping bit of the first failing row is
the pair the pairwise walk named.  ``validate_carrier_hom`` compares the
map with the product map of its components in one step, and ``dB``
restricts L's tables to the d-complemented elements instead of rebuilding
a lattice on them.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import DegeneratePair, InvariantViolation, NotBounded
from .lattice import (
    FiniteLattice,
    FinitePoset,
    LatticeHom,
    bits,
    build_lattice,
    enumerate_lattice_homs,
    extreme_of,
    inverse_permutation,
    is_lattice_iso,
    lattice_isos,
    low_bit,
    mask_of,
    prime_generators,
    validate_lattice_hom,
)
from .report import StructReport


class DLattice:
    """Coordinate lattices plus con/tot pair sets (bitmasks over pair ids);
    immutable once built.  The ``held_spectrum`` slot is unset until
    ``duality.spectrum`` writes the d-lattice's spectrum there, once."""

    __slots__ = ("plus", "minus", "con_mask", "tot_mask", "held_spectrum")

    def __init__(self, plus, minus, con_mask, tot_mask):
        _set_plus(self, plus)
        _set_minus(self, minus)
        _set_con_mask(self, con_mask)
        _set_tot_mask(self, tot_mask)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- carrier ------------------------------------------------------------

    @property
    def size(self):
        return self.plus.n * self.minus.n

    def pid(self, a, b):
        return a * self.minus.n + b

    def unpid(self, p):
        return divmod(p, self.minus.n)

    @property
    def tt(self):
        return self.pid(self.plus.top, self.minus.bot)

    @property
    def ff(self):
        return self.pid(self.plus.bot, self.minus.top)

    def pair_label(self, p):
        a, b = self.unpid(p)
        return f"({self.plus.labels[a]},{self.minus.labels[b]})"

    def labels_of(self, p):
        a, b = self.unpid(p)
        return (self.plus.labels[a], self.minus.labels[b])

    # -- predicates ----------------------------------------------------------

    def in_con(self, p):
        return (self.con_mask >> p) & 1 == 1

    def in_tot(self, p):
        return (self.tot_mask >> p) & 1 == 1


# The slot descriptors' setters, bound once: ``__setattr__`` raises, and
# these write a slot without the per-call lookup of ``object.__setattr__``.
_set_plus = DLattice.plus.__set__
_set_minus = DLattice.minus.__set__
_set_con_mask = DLattice.con_mask.__set__
_set_tot_mask = DLattice.tot_mask.__set__


# ---------------------------------------------------------------------------
# logic order


def logic_formula_row(L, x, e):
    """Per y in L, ((x ∧ e) ∨ (y ∧ e)) ∨ (x ∧ y) from L's tables.  As the
    carrier's meet and join are coordinatewise, over all q this is one
    coordinate of logic meet p ⊓ q = (p ∧ ff) ∨ (q ∧ ff) ∨ (p ∧ q), or of
    logic join p ⊔ q (with tt), at that coordinate x of p and e of ff (tt)."""
    left = L.join[L.meet[x][e]]
    return tuple(L.join[left[L.meet[y][e]]][L.meet[x][y]] for y in range(L.n))


def logic_order_lattice(dl):
    """Carrier under the logic order as a validated lattice (small inputs).

    (a, b) ≤ (a′, b′) in the logic order iff a ≤ a′ in plus and b′ ≤ b in
    minus, so the up row of (a, b) is the rows a′ ≥ a intersected with the
    columns b′ ≤ b: the union of ``minus.down[b] << a′ * n_minus`` over
    a′ ≥ a, one AND of two ``covered_pairs`` masks."""
    P, M, n = dl.plus, dl.minus, dl.size
    rows_above = [covered_pairs(P.n, M.n, up, 0) for up in P.up]
    columns_below = [covered_pairs(P.n, M.n, 0, down) for down in M.down]
    up = [rows & columns for rows in rows_above for columns in columns_below]
    leq = [[(row >> q) & 1 == 1 for q in range(n)] for row in up]
    return build_lattice([dl.pair_label(p) for p in range(n)], leq)


# ---------------------------------------------------------------------------
# pair-set kernels: cover steps, closure gaps, logic closure


def unit_masks(n_plus, n_minus):
    """(row0, col0): the pair-id masks of plus element 0's row and of minus
    element 0's column.  ``row0 << a * n_minus`` is row a, ``col0 << b`` is
    column b, and ``m * col0`` repeats a minus-side mask m in every row."""
    row0 = (1 << n_minus) - 1
    return row0, ((1 << (n_plus * n_minus)) - 1) // row0


def covered_pairs(n_plus, n_minus, zplus, zminus):
    """Pair ids (a, b) with a in zplus (the whole row) or b in zminus."""
    row0, col0 = unit_masks(n_plus, n_minus)
    covered = zminus * col0
    for a in bits(zplus):
        covered |= row0 << (a * n_minus)
    return covered


def pair_mask(rows, n_minus):
    """The pair-id mask whose row a is the minus-side mask ``rows[a]``."""
    mask = 0
    for a, row in enumerate(rows):
        mask |= row << (a * n_minus)
    return mask


class CoordinateTables:
    """The tables of a pair of coordinate lattices, each built on first read;
    records compare by ``key``, the up rows, of which every table is a
    function.  ``con_verdicts`` and ``tot_verdicts`` map a mask to its
    label-free verdict as con or tot (``_side_verdict``), filled by
    ``validate_dlattice``.  A record keeps a plain ``FinitePoset`` copy of
    each lattice's order and the operation tables, not the lattices."""

    def __init__(self, plus, minus):
        # the record is held in plus.paired_tables: holding a lattice would make a cycle
        self.posets = tuple(FinitePoset.relabeled(L, L.labels) for L in (plus, minus))
        self.operations = ((plus.meet, plus.join), (minus.meet, minus.join))
        self.key = (plus.up, minus.up)
        self.con_verdicts = {}
        self.tot_verdicts = {}

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def _cover_steps(self, downward):
        """One (selector, shift) per shift of a cover edge: an edge moves the pairs
        at its source end (upper when ``downward``) to its other end, and edges
        with one shift share a step whose selector is the union of theirs."""
        P, M = self.posets
        row0, col0 = unit_masks(P.n, M.n)
        selectors = {}
        for hasse, unit, width in ((M.hasse, col0, 1), (P.hasse, row0, M.n)):
            for lo, hi in hasse:
                src, dst = (hi, lo) if downward else (lo, hi)
                shift = (src - dst) * width
                selectors[shift] = selectors.get(shift, 0) | unit << (src * width)
        return tuple((selector, shift) for shift, selector in selectors.items())

    @cached_property
    def down_steps(self):
        return self._cover_steps(True)

    @cached_property
    def up_steps(self):
        return self._cover_steps(False)

    @cached_property
    def logic(self):
        """Logic meet (∧, ∨) and join (∨, ∧) by name, each as its (plus,
        minus) coordinate tables: the lattices' own tuples."""
        (plus_meet, plus_join), (minus_meet, minus_join) = self.operations
        return (("logic-meet", plus_meet, minus_join), ("logic-join", plus_join, minus_meet))

    @cached_property
    def not_above(self):
        """The con–tot masks: per minus element b, the row-0 pairs (0, b2) with
        b2 not above b; per plus a, the column-0 pairs (a2, 0), a2 not above a."""
        P, M = self.posets
        row0, col0 = unit_masks(P.n, M.n)
        in_column = tuple(col0 & ~covered_pairs(P.n, M.n, up, 0) for up in P.up)
        return tuple(row0 & ~up for up in M.up), in_column

    def _covered_masks(self, downward):
        """Per coordinate lattice, indexed by element g, the mask of the pairs
        whose coordinate there is ≤ g, or ≥ g when not ``downward``."""
        P, M = self.posets
        plus_rows, minus_rows = (P.down, M.down) if downward else (P.up, M.up)
        return (
            tuple(covered_pairs(P.n, M.n, row, 0) for row in plus_rows),
            tuple(covered_pairs(P.n, M.n, 0, row) for row in minus_rows),
        )

    @cached_property
    def down_masks(self):
        return self._covered_masks(True)

    @cached_property
    def up_masks(self):
        return self._covered_masks(False)

    @cached_property
    def meet_irreducibles(self):
        """Per coordinate lattice, the mask of its elements with one upper
        cover, the prime generators: the sides clause (i) of
        ``duality.spatiality_check`` asks for."""
        return tuple(mask_of(prime_generators(L)) for L in self.posets)

    @cached_property
    def prime_grid(self):
        """One cell (w, t, (u, v, rows_u | cols_v, rows_u & cols_v)) per
        pair of prime generators, u outer, where w is the bit of the pair
        (c(u), c(v)), c(u) the least element outside ↓u, and t the bit of
        (u, v): the witnesses ``prime_cells`` tests against con and tot."""
        rows, cols = self.down_masks
        witnesses = [
            [(u, extreme_of(((1 << L.n) - 1) & ~L.down[u], L.up)) for u in prime_generators(L)]
            for L in self.posets
        ]
        n = self.posets[1].n
        return tuple(
            (1 << (cu * n + cv), 1 << (u * n + v), (u, v, rows[u] | cols[v], rows[u] & cols[v]))
            for u, cu in witnesses[0]
            for v, cv in witnesses[1]
        )

    def prime_cells(self, con_mask, tot_mask):
        """The cells (u, v, rows_u | cols_v, rows_u & cols_v) of the prime
        grid, u outer, whose (↓u, ↓v) covers con and avoids tot, by two bit
        tests per cell.

        Let con be a down-set and tot an up-set, as on every valid d-lattice
        and every Q2 candidate.  For a prime generator u, the complement of
        the prime ideal ↓u is a prime filter ↑c(u), so c(u) is
        join-irreducible.  (↓u, ↓v) covers con iff (c(u), c(v)) ∉ con: a
        consistent (a, b) with a ≰ u and b ≰ v has c(u) ≤ a and c(v) ≤ b,
        and (c(u), c(v)) itself is not covered.  It avoids tot iff (u, v),
        the top of ↓u × ↓v, is not in tot.  A cell keeps the bits of these
        two witnesses."""
        return [cell for w, t, cell in self.prime_grid if not con_mask & w and not tot_mask & t]


def _pair_entry(dl):
    """The entry of dl's lattice pair, (record, report memo), held on its
    plus lattice per minus lattice (``FiniteLattice.paired_tables``): a
    repeat read for the pair is one dict read keyed by identity, and only
    the first builds a record, to look up in ``_shared_tables``."""
    held = dl.plus.paired_tables
    entry = held.get(dl.minus)
    if entry is None:
        entry = held[dl.minus] = (_shared_tables(CoordinateTables(dl.plus, dl.minus)), {})
    return entry


def coordinate_tables(dl):
    """The shared ``CoordinateTables`` with the up rows of dl, read from its
    lattice pair's entry (``_pair_entry``)."""
    return _pair_entry(dl)[0]


@lru_cache(maxsize=128)
def _shared_tables(tables):
    """The first record cached with the up rows of ``tables``, read once per
    new lattice pair.  From an empty cache, a bound-5 ``_q2_dlattices``
    stream reads 49 records and the five ``props`` suites 65 (8 while
    building the default bundle), so the last 128 hold either.  One
    ``duality-corpus`` pass reads 174 distinct records, each once, and
    building its inputs reads none."""
    return tables


def step(mask, steps):
    """The pairs one cover step (along ``steps``) from a member of mask."""
    out = 0
    for selector, shift in steps:
        moved = mask & selector
        out |= moved >> shift if shift >= 0 else moved << -shift
    return out


def closure(mask, steps):
    """The closure of a pair set under cover steps: its down-set (``steps``
    downward) or its up-set (upward)."""
    while True:
        grown = mask | step(mask, steps)
        if grown == mask:
            return mask
        mask = grown


def logic_closed_on(dl, tables, mask, members):
    """Whether logic meet and join of every two members (a pair-id mask) lie
    in mask.  Both operations are commutative and idempotent, so one pass
    over the unordered pairs of distinct members decides both."""
    nm = dl.minus.n
    (_, meet_plus, meet_minus), (_, join_plus, join_minus) = tables
    while members:
        low = members & -members
        members ^= low
        a1, b1 = divmod(low.bit_length() - 1, nm)
        mp, mm, jp, jm = meet_plus[a1], meet_minus[b1], join_plus[a1], join_minus[b1]
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            a2, b2 = divmod(low.bit_length() - 1, nm)
            if not ((mask >> (mp[a2] * nm + mm[b2])) & (mask >> (jp[a2] * nm + jm[b2])) & 1):
                return False
    return True


def first_escape(dl, plus_table, minus_table, mask, members):
    """First (p, q) of members, in lexicographic order, whose image under the
    coordinatewise operation lies outside mask."""
    nm = dl.minus.n
    coords = [divmod(q, nm) for q in members]
    for p, (a1, b1) in zip(members, coords):
        plus_row, minus_row = plus_table[a1], minus_table[b1]
        for q, (a2, b2) in zip(members, coords):
            if not (mask >> (plus_row[a2] * nm + minus_row[b2])) & 1:
                return p, q
    return None


# ---------------------------------------------------------------------------
# axiom validation


def _side_verdict(dl, tables, name, mask):
    """The single-side clauses on mask as con or tot (``name``), in pair ids:
    (rank, witness) for the first that fails, rank 0 tt/ff with the missing
    one, 1 closure with the lowest missing pair, 2 logic with the operation
    and escaping members; else (3, None), and for con (3, (F(con), members)),
    each member's pair id with its con–tot mask, in pair-id order."""
    P, M = dl.plus, dl.minus
    nm = M.n
    tt, ff = P.top * nm + M.bot, P.bot * nm + M.top
    if not (mask >> tt) & (mask >> ff) & 1:
        return 0, "ff" if (mask >> tt) & 1 else "tt"
    # con a down-set (finite Scott-closedness, see module docstring), tot an
    # up-set; the logic clauses are then decided on the maximal members of
    # con and the minimal members of tot
    steps = tables.down_steps if name == "con" else tables.up_steps
    moved = step(mask, steps)
    if moved & ~mask:
        return 1, low_bit(closure(mask, steps) & ~mask)
    if not logic_closed_on(dl, tables.logic, mask, mask & ~moved):
        members = list(bits(mask))
        for op_name, plus_table, minus_table in tables.logic:
            escape = first_escape(dl, plus_table, minus_table, mask, members)
            if escape is not None:
                return 2, (op_name, *escape)
    if name == "tot":
        return 3, None
    in_row, in_column = tables.not_above
    members, forbidden = [], 0
    for p in bits(mask):
        a, b = divmod(p, nm)
        not_above = (in_row[b] << (a * nm)) | (in_column[a] << b)
        members.append((p, not_above))
        forbidden |= not_above
    return 3, (forbidden, tuple(members))


def validate_dlattice(dl):
    """PASS, or the first violated d-lattice axiom with a concrete witness:
    tt/ff, closure and logic clauses in that order, con before tot in each,
    then con–tot.  The clauses are decided in pair ids, and the report of
    the cause is read from the lattice pair's memo (module docstring)."""
    P, M = dl.plus, dl.minus
    tables, reports = _pair_entry(dl)
    if P.n < 2 or M.n < 2:
        return StructReport.failed(
            "degenerate-pair",
            message="{tt,ff} = {1,0}: a coordinate lattice is trivial",
        )
    con, tot = dl.con_mask, dl.tot_mask
    con_verdict = tables.con_verdicts.get(con)
    if con_verdict is None:
        con_verdict = tables.con_verdicts[con] = _side_verdict(dl, tables, "con", con)
    tot_verdict = tables.tot_verdicts.get(tot)
    if tot_verdict is None:
        tot_verdict = tables.tot_verdicts[tot] = _side_verdict(dl, tables, "tot", tot)
    cause = None
    if tot_verdict[0] < con_verdict[0]:
        cause = ("tot", *tot_verdict)
    elif con_verdict[0] < 3:
        cause = ("con", *con_verdict)
    else:
        # a consistent (a, b) must lie below every total pair in its row and
        # column; the first failing (a, b) in pair-id order is named, with the
        # lowest such total pair
        forbidden, members = con_verdict[1]
        if tot & forbidden:
            for p, not_above in members:
                if tot & not_above:
                    cause = ("con-tot", p, low_bit(tot & not_above))
                    break
    report = reports.get(cause)
    if report is None:
        report = reports[cause] = _report(dl, cause)
    return report


def _report(dl, cause):
    """The labelled report of a ``validate_dlattice`` cause on dl's pair:
    PASS for None, else the failed clause with its witness in dl's labels."""
    if cause is None:
        return StructReport.passed("valid d-lattice")
    if cause[0] == "con-tot":
        _, p, q = cause
        alpha, beta = dl.labels_of(p), dl.labels_of(q)
        return StructReport.failed(
            "con-tot",
            witness={"alpha": alpha, "beta": beta},
            message=f"consistent {alpha} shares a coordinate with total {beta} but is not below it",
        )
    name, rank, w = cause
    if rank == 0:
        return StructReport.failed(f"{name}-tt-ff", witness=w, message=f"{w} not in {name}")
    if rank == 1:
        axiom, word = ("con-scott-closed", "smaller") if name == "con" else ("tot-upper-set", "larger")
        return StructReport.failed(
            axiom,
            witness=dl.labels_of(w),
            message=f"{name} misses the {word} pair {dl.pair_label(w)}",
        )
    op_name, p, q = w
    w = (dl.labels_of(p), dl.labels_of(q))
    return StructReport.failed(
        f"{name}-logic-sublattice",
        witness=w,
        message=f"{name} not closed under {op_name} at {w}",
    )


# ---------------------------------------------------------------------------
# constructions


def require_valid(report, what):
    """Raise InvariantViolation unless a constructed result validated; the
    guard survives ``python -O``."""
    if not report.ok:
        raise InvariantViolation(f"{what} failed validation: {report.message}")


@lru_cache(maxsize=1)
def bool_dlattice():
    """The four-element dualizing object: con = {0,tt,ff}, tot = {1,tt,ff}.

    The swap pairing makes it d-Boolean; this is the unique d-lattice
    structure on the four-element Boolean algebra.
    """
    two_t = build_lattice(["0", "tt"], [[True, True], [False, True]])
    two_f = build_lattice(["0", "ff"], [[True, True], [False, True]])
    # pair ids a * 2 + b: con = {0, ff, tt}, tot = {ff, tt, 1}
    dl = DBooleanAlgebra(two_t, two_f, 0b0111, 0b1110, (1, 0))
    require_valid(validate_dboolean(dl), "the four-element object")
    return dl


def omega_of_lattice(H):
    """Doubled d-lattice on H: con is disjointness, tot is covering."""
    if H.n < 2:
        raise DegeneratePair("omega of the one-element lattice is degenerate")
    con = pair_mask([mask_of(b for b, m in enumerate(row) if m == H.bot) for row in H.meet], H.n)
    tot = pair_mask([mask_of(b for b, j in enumerate(row) if j == H.top) for row in H.join], H.n)
    dl = DLattice(H, H, con, tot)
    require_valid(validate_dlattice(dl), "omega")
    return dl


def d_complement(dl, x, side):
    """The unique partner of a one-sided element inside con ∩ tot, if any.

    The bottom element has two d-complements, one per side, so the side tag
    is part of the input: on the plus side its d-complement is ff (the top
    of the minus lattice), on the minus side it is tt.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    both = dl.con_mask & dl.tot_mask
    plus_side = side == "+"
    others = dl.minus.n if plus_side else dl.plus.n
    found = [y for y in range(others) if (both >> (dl.pid(x, y) if plus_side else dl.pid(y, x))) & 1]
    if len(found) > 1:
        raise InvariantViolation("d-complement not unique")
    return found[0] if found else None


def d_complemented_sides(dl):
    """Index lists of d-complemented elements on each side."""
    bplus = [a for a in range(dl.plus.n) if d_complement(dl, a, "+") is not None]
    bminus = [b for b in range(dl.minus.n) if d_complement(dl, b, "-") is not None]
    return bplus, bminus


class DBooleanAlgebra(DLattice):
    """d-lattice in which taking d-complements is an order-reversing
    bijection between the coordinate lattices."""

    __slots__ = ("dagger", "dagger_inv")

    def __init__(self, plus, minus, con_mask, tot_mask, dagger):
        super().__init__(plus, minus, con_mask, tot_mask)
        dagger = tuple(int(x) for x in dagger)
        object.__setattr__(self, "dagger", dagger)
        object.__setattr__(self, "dagger_inv", inverse_permutation(dagger, minus.n))


def _dagger_reversal_failure(plus, minus, dagger):
    """The first (a1, a2) in row-major order with a1 ≤ a2 in plus but not
    †a2 ≤ †a1 in minus, or the reverse; None when the bijection † is order
    reversing.

    Decided per plus row: † reverses the order iff, for each a1, the image
    of the up row of a1 under † is the down row of †a1 (a1 ≤ a2 iff
    †a2 ≤ †a1, for every a2).  The inner loop runs only to name a2."""
    for a1, row in enumerate(plus.up):
        image = 0
        for a2 in bits(row):
            image |= 1 << dagger[a2]
        if image != minus.down[dagger[a1]]:
            for a2 in range(plus.n):
                if plus.leq(a1, a2) != minus.leq(dagger[a2], dagger[a1]):
                    return a1, a2
    return None


def _dagger_masks(minus, dagger):
    """con and tot of the pairing: with † order reversing, (a, b) ∈ con iff
    a ≤ †⁻¹b iff b ≤ †a, and (a, b) ∈ tot iff †a ≤ b, so row a of con is
    the down row of †a and row a of tot is its up row."""
    return pair_mask([minus.down[d] for d in dagger], minus.n), pair_mask([minus.up[d] for d in dagger], minus.n)


def _pairing_failure(A):
    """The failed report of the first pairing clause of A, or None: † a
    bijection from the plus elements onto the minus elements, † order
    reversing, and con/tot the masks of ``_dagger_masks``.

    The order-reversal clause is checked per plus row, and the con/tot
    clauses as one XOR each against the rows of ``_dagger_masks``.  The
    failure named is the one the pairwise scans name: the first (a1, a2)
    in row-major order for the order, and for con/tot the lowest pair id
    where either differs, con before tot at that pair."""
    if len(A.dagger) != A.plus.n or sorted(A.dagger) != list(range(A.minus.n)):
        return StructReport.failed(
            "dagger-bijection",
            witness=A.dagger,
            message=f"dagger {A.dagger} is not a bijection onto the {A.minus.n} minus elements",
        )
    bad = _dagger_reversal_failure(A.plus, A.minus, A.dagger)
    if bad is not None:
        a1, a2 = bad
        l1, l2 = A.plus.labels[a1], A.plus.labels[a2]
        plus_side, minus_side = f"{l1} <= {l2}", f"dagger({l2}) <= dagger({l1})"
        if not A.plus.leq(a1, a2):
            plus_side, minus_side = minus_side, plus_side
        return StructReport.failed(
            "dagger-order-reversing",
            witness=(l1, l2),
            message=f"dagger not order reversing on ({l1}, {l2}): {plus_side} but not {minus_side}",
        )
    con, tot = _dagger_masks(A.minus, A.dagger)
    con_diff, tot_diff = A.con_mask ^ con, A.tot_mask ^ tot
    if con_diff | tot_diff:
        p = low_bit(con_diff | tot_diff)
        a, b = A.unpid(p)
        la, lb, ld = A.plus.labels[a], A.minus.labels[b], A.minus.labels[A.dagger[a]]
        if (con_diff >> p) & 1:
            axiom, mask, word, order = "con-from-dagger", A.con_mask, "consistent", f"{lb} <= dagger({la}) = {ld}"
        else:
            axiom, mask, word, order = "tot-from-dagger", A.tot_mask, "total", f"dagger({la}) = {ld} <= {lb}"
        verdict = f"is {word} but not" if (mask >> p) & 1 else f"is not {word} but"
        return StructReport.failed(axiom, witness=(la, lb), message=f"{A.pair_label(p)} {verdict} {order}")
    return None


def validate_dboolean(A):
    """d-lattice axioms plus the order-reversing-pairing characterization,
    decided by the pairing clauses of ``_pairing_failure`` first.

    The d-lattice axioms need no check of their own when the pairing
    clauses hold and both coordinates have at least 2 elements.  Then †
    is an order anti-isomorphism, so †(a ∧ a′) = †a ∨ †a′ and
    †(a ∨ a′) = †a ∧ †a′; con = {(a, b) : b ≤ †a} and tot = {(a, b) :
    †a ≤ b}, so A is λ-shaped.
    1. tt/ff: †⊤ = ⊥ and †⊥ = ⊤, so (⊤, ⊥) and (⊥, ⊤) lie in both.
    2. con a down-set: (a, b) ≤ (a′, b′) ∈ con gives b ≤ b′ ≤ †a′ ≤ †a;
       dually (a, b) ≥ (a′, b′) ∈ tot gives †a ≤ †a′ ≤ b′ ≤ b.
    3. con a logic sublattice: for (a, b), (a′, b′) ∈ con, b ∨ b′ ≤
       †a ∨ †a′ = †(a ∧ a′) and b ∧ b′ ≤ †a ∧ †a′ = †(a ∨ a′); dually
       †(a ∧ a′) = †a ∨ †a′ ≤ b ∨ b′ and †(a ∨ a′) ≤ b ∧ b′ for tot.
    4. con–tot: a consistent (a, b) and a total (a, b′) give
       b ≤ †a ≤ b′; a consistent (a, b) and a total (a′, b) give
       a ≤ †⁻¹b ≤ a′.
    The one axiom the pairing does not give is that neither coordinate is
    trivial, hence the size test.  ``validate_dlattice`` runs only when a
    pairing clause fails or a coordinate is trivial, and its failure is
    reported first, so the report is the one of the d-lattice axioms
    followed by the pairing clauses.

    That every element is d-complemented, with partner its dagger image,
    needs no clause of its own either.  (a, b) ∈ con ∩ tot iff b = †a, so
    the only pair of row a in con ∩ tot is (a, †a), and dually the only
    pair of column b is (†⁻¹b, b)."""
    failure = _pairing_failure(A)
    if failure is None and A.plus.n >= 2 and A.minus.n >= 2:
        return StructReport.passed("valid d-Boolean algebra")
    base = validate_dlattice(A)
    return base if not base.ok else failure


@dataclass(frozen=True)
class Coreflection:
    """dB(L) together with the index embeddings of its sides into L."""

    algebra: DBooleanAlgebra
    embed_plus: tuple
    embed_minus: tuple


def dB(dl):
    """d-Boolean algebra of d-complemented elements, with its embedding.
    The dagger is read from the restricted con ∩ tot, whose row i holds one
    bit: bplus[i]'s partner, found once by ``d_complemented_sides``."""
    bplus, bminus = d_complemented_sides(dl)

    def sublattice(L, elems):
        """L's tables read at elems, re-indexed, with the induced order (up
        row i: the j with elems[i] ∧ elems[j] = elems[i]).  No elems raises
        as ``build_lattice`` does, and an entry outside elems raises.  That
        is the guard that L's tables equal those of the lattice built on the
        induced order: a subset closed under L's ∧ and ∨ is a lattice with
        L's tables, distributive as a sublattice of a distributive lattice
        and bounded as finite and nonempty; and a built lattice with L's
        tables has every entry in elems."""
        if not elems:
            raise NotBounded("empty carrier has no bottom element")
        index = {a: i for i, a in enumerate(elems)}.get
        meet, join = (
            tuple(tuple(map(index, map(table[a].__getitem__, elems))) for a in elems) for table in (L.meet, L.join)
        )
        if any(None in row for row in meet + join):
            raise InvariantViolation("d-complemented elements failed to be a sublattice")
        up = [mask_of(j for j, m in enumerate(row) if m == i) for i, row in enumerate(meet)]
        order = FinitePoset.from_rows([L.labels[a] for a in elems], up)
        full = (1 << len(elems)) - 1
        return FiniteLattice(order, order.up.index(full), order.down.index(full), meet, join)

    plus = sublattice(dl.plus, bplus)
    minus = sublattice(dl.minus, bminus)
    # row i of con (tot): the j with (bplus[i], bminus[j]) in dl's con (tot)
    nm = len(bminus)
    con, tot = (
        pair_mask([mask_of(j for j, b in enumerate(bminus) if (mask >> dl.pid(a, b)) & 1) for a in bplus], nm)
        for mask in (dl.con_mask, dl.tot_mask)
    )
    both = con & tot
    dagger = [low_bit(both >> (i * nm)) for i in range(len(bplus))]
    algebra = DBooleanAlgebra(plus, minus, con, tot, dagger)
    require_valid(validate_dboolean(algebra), "dB output")
    return Coreflection(algebra, tuple(bplus), tuple(bminus))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class DLatticeHom:
    source: DLattice = field(repr=False)
    target: DLattice = field(repr=False)
    fplus: tuple
    fminus: tuple

    def apply(self, p):
        a, b = self.source.unpid(p)
        return self.target.pid(self.fplus[a], self.fminus[b])


def validate_dlattice_hom(hom):
    """PASS or the first violated preservation condition with a witness.

    The product of the component maps is a lattice homomorphism iff both
    components are; tt/ff preservation is exactly bound preservation of the
    components.  con and then tot are decided by ``_con_tot_failure``.
    """
    src, tgt = hom.source, hom.target
    for name, f, L, M in (
        ("plus", hom.fplus, src.plus, tgt.plus),
        ("minus", hom.fminus, src.minus, tgt.minus),
    ):
        rep = validate_lattice_hom(LatticeHom(L, M, tuple(f)))
        if not rep.ok:
            clause = {"bottom": "ff" if name == "plus" else "tt", "top": "tt" if name == "plus" else "ff"}.get(rep.axiom, rep.axiom)
            return StructReport.failed(
                f"{name}-{rep.axiom}" if rep.axiom in ("meet", "join", "total") else clause,
                witness=rep.witness,
                message=f"{name} component: {rep.message}",
            )
    failure = _con_tot_failure(hom)
    return failure if failure is not None else StructReport.passed("valid d-lattice homomorphism")


def _con_tot_failure(hom):
    """The failed report naming the lowest consistent source pair whose
    image is not consistent, else the lowest such total pair; or None.

    Row a of a source mask maps inside the target mask iff each of its b
    lies in ``allowed``, the union of ``columns[v]`` (the b with f₋(b) = v)
    over the v of row f₊(a) of the target mask, built once per value of f₊.
    Rows are taken in order, so the first row with a b outside ``allowed``,
    at its lowest such b, is the lowest failing pair id."""
    src, tgt = hom.source, hom.target
    src_nm, tgt_nm = src.minus.n, tgt.minus.n
    src_row, tgt_row = (1 << src_nm) - 1, (1 << tgt_nm) - 1
    columns = [0] * tgt_nm
    for b, v in enumerate(hom.fminus):
        columns[v] |= 1 << b
    for name, word, src_mask, tgt_mask in (
        ("con", "consistent", src.con_mask, tgt.con_mask),
        ("tot", "total", src.tot_mask, tgt.tot_mask),
    ):
        allowed = {}
        for a, x in enumerate(hom.fplus):
            row = (src_mask >> (a * src_nm)) & src_row
            if not row:
                continue
            inside = allowed.get(x)
            if inside is None:
                inside = 0
                for v in bits((tgt_mask >> (x * tgt_nm)) & tgt_row):
                    inside |= columns[v]
                allowed[x] = inside
            if row & ~inside:
                p = a * src_nm + low_bit(row & ~inside)
                return StructReport.failed(
                    name,
                    witness=src.labels_of(p),
                    message=f"image of {word} pair {src.pair_label(p)} not {word}",
                )
    return None


def validate_carrier_hom(src, tgt, values):
    """Validate a raw carrier map h: L → M, one not given componentwise
    (e.g. into the four-element object), as a d-lattice homomorphism.

    With (a, 0) = (a, bot) and (0, b) = (bot, b), h is one iff
    1. h(tt) = tt′ and h(ff) = ff′;
    2. h(a, 0) ≤ tt′ and h(0, b) ≤ ff′;
    3. h(a, b) = h(a, 0) ∨ h(0, b);
    4. (f₊, f₋) passes ``validate_dlattice_hom``, with f₊(a) the plus
       coordinate of h(a, 0) and f₋(b) the minus coordinate of h(0, b).
    Only if: (a, 0) = (a, b) ∧ tt, (0, b) = (a, b) ∧ ff and
    (a, b) = (a, 0) ∨ (0, b).  If 2 and 3 hold, h is the product map
    f₊ × f₋, and ∧ and ∨ are coordinatewise, so h is a hom iff 4 holds; the
    bounds of f₊ and f₋ are kept, as h(0, 0) ≤ tt′ ∧ ff′,
    h(tt) = (f₊(top), f₋(bot)) and h(ff) = (f₊(bot), f₋(top)).

    Clause 3 is one comparison of h with the product map f₊ × f₋.

    A failure names a pair of pairs that breaks its clause: ((a, 0), tt)
    breaks ∧ when 2 fails, as (a, 0) = (a, 0) ∧ tt; ((a, 0), (0, b)) breaks
    ∨ at the first (a, b) where 3 fails; a component failure at (x, y) is
    one of h at the pairs of x and y."""
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
    product_map = tuple([x * tnm + y for x in fplus for y in fminus])
    if tuple(values) != product_map:
        p = next(p for p, (v, w) in enumerate(zip(values, product_map)) if v != w)
        a, b = src.unpid(p)
        return StructReport.failed("join", witness=(on_plus[a], on_minus[b]))
    rep = validate_dlattice_hom(DLatticeHom(src, tgt, fplus, fminus))
    if rep.ok:
        return StructReport.passed()
    side, _, op = rep.axiom.partition("-")
    if op in ("meet", "join"):
        ends = on_plus if side == "plus" else on_minus
        return StructReport.failed(op, witness=tuple(ends[x] for x in rep.witness))
    return rep  # con or tot: by 1-3 the components preserve their bounds


def _con_tot_pairs(src, tgt, plus_maps, minus_maps):
    """The pairs (f₊, f₋), f₊ from ``plus_maps`` (outer) and f₋ from
    ``minus_maps`` (inner), each in list order, whose product maps
    con into con′ and tot into tot′: the pairs ``_con_tot_failure`` passes.

    That holds iff (f₊(a), f₋(b)) ∈ con′ for each (a, b) ∈ con, and so for
    tot: iff, for each source minus element b, f₋(b) lies in row f₊(a) of
    con′ for each a with (a, b) ∈ con, and in row f₊(a) of tot′ for each a
    with (a, b) ∈ tot.  So per f₊ the allowed values of f₋(b) are one mask,
    ``allowed``, the AND of those target rows, and f₋ passes iff
    f₋(b) ∈ allowed for every b.  The f₋ with f₋(b) = v are one bitset over
    the list, so the survivors of a column are the union of the bitsets of
    its allowed values, and the f₋ that pass are the AND of those unions
    over the columns, walked in list order."""
    snm, tnm = src.minus.n, tgt.minus.n
    full_row = (1 << tnm) - 1
    target_rows = [
        tuple((mask >> (a * tnm)) & full_row for a in range(tgt.plus.n)) for mask in (tgt.con_mask, tgt.tot_mask)
    ]
    checks = [[] for _ in range(snm)]  # checks[b]: (rows of con′ or tot′, a) per (a, b) in con or tot
    for rows, mask in zip(target_rows, (src.con_mask, src.tot_mask)):
        for p in bits(mask):
            a, b = divmod(p, snm)
            checks[b].append((rows, a))
    having = [[0] * tnm for _ in range(snm)]  # having[b][v]: the f₋ with f₋(b) = v
    for k, fm in enumerate(minus_maps):
        for b, v in enumerate(fm):
            having[b][v] |= 1 << k
    everyone = (1 << len(minus_maps)) - 1
    for fp in plus_maps:
        alive = everyone
        for b, column in enumerate(checks):
            allowed = full_row
            for rows, a in column:
                allowed &= rows[fp[a]]
            if allowed != full_row:
                survivors = 0
                for v in bits(allowed):
                    survivors |= having[b][v]
                alive &= survivors
                if not alive:
                    break
        for k in bits(alive):
            yield fp, minus_maps[k]


def enumerate_dlattice_homs(src, tgt):
    """All d-lattice homomorphisms, as component-map pairs: every pair of
    lattice homs on the two coordinates (``enumerate_lattice_homs``) that
    maps con and tot inside con′ and tot′ (``_con_tot_pairs``), plus maps
    outer and minus maps inner."""
    minus_maps = [fm.mapping for fm in enumerate_lattice_homs(src.minus, tgt.minus)]
    plus_maps = [fp.mapping for fp in enumerate_lattice_homs(src.plus, tgt.plus)]
    return [DLatticeHom(src, tgt, fp, fm) for fp, fm in _con_tot_pairs(src, tgt, plus_maps, minus_maps)]


def dlattice_equal(d1, d2):
    """Structural equality: same labelled coordinates, same con and tot."""
    return (
        d1.plus.labels == d2.plus.labels
        and d1.minus.labels == d2.minus.labels
        and d1.plus.up == d2.plus.up
        and d1.minus.up == d2.minus.up
        and d1.con_mask == d2.con_mask
        and d1.tot_mask == d2.tot_mask
    )


# ---------------------------------------------------------------------------
# the functor from distributive lattices


def lambda_of_dislat(M):
    """d-Boolean algebra on (M, M-with-order-reversed, identity pairing)."""
    if M.n < 2:
        raise DegeneratePair("the one-element lattice gives a degenerate pair")
    minus, ids = M.dual(), tuple(range(M.n))
    A = DBooleanAlgebra(M, minus, *_dagger_masks(minus, ids), ids)
    require_valid(validate_dboolean(A), "lambda_of_dislat")
    return A


def canonical_lambda_iso(A):
    """The isomorphism A ≅ λ(A.plus): identity on plus, dagger on minus."""
    lam = lambda_of_dislat(A.plus)
    hom = DLatticeHom(A, lam, tuple(range(A.plus.n)), A.dagger_inv)
    require_valid(validate_dlattice_hom(hom), "the canonical lambda iso")
    back = DLatticeHom(lam, A, tuple(range(A.plus.n)), A.dagger)
    require_valid(validate_dlattice_hom(back), "the inverse lambda iso")
    return hom, back


def find_dboolean_iso(A, B):
    """Isomorphism of d-Boolean algebras: any plus-iso lifts along the daggers."""
    fp = next(lattice_isos(A.plus, B.plus), None)
    if fp is None:
        return None
    fminus = tuple(B.dagger[fp.mapping[A.dagger_inv[b]]] for b in range(A.minus.n))
    hom = DLatticeHom(A, B, fp.mapping, fminus)
    require_valid(validate_dlattice_hom(hom), "the lifted d-Boolean iso")
    if not is_lattice_iso(LatticeHom(A.minus, B.minus, fminus)):
        raise InvariantViolation("the lifted minus map is not a lattice iso")
    return hom


def find_dlattice_iso(d1, d2):
    """Isomorphism of general d-lattices: the first pair of coordinate isos
    (plus isos outer, ``lattice_isos`` order) that maps con and tot onto
    d2's."""
    # the component maps are bijections, so the image of con is d2's con iff
    # it lies inside it and the sizes agree; so for tot
    if (d1.con_mask.bit_count(), d1.tot_mask.bit_count()) != (d2.con_mask.bit_count(), d2.tot_mask.bit_count()):
        return None
    minus_maps = [fm.mapping for fm in lattice_isos(d1.minus, d2.minus)]
    plus_maps = [fp.mapping for fp in lattice_isos(d1.plus, d2.plus)]
    found = next(_con_tot_pairs(d1, d2, plus_maps, minus_maps), None)
    return None if found is None else DLatticeHom(d1, d2, *found)
