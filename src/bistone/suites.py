"""Named invariant suites over a structure corpus.

Each check returns (ok, detail), and one that raises fails with the
exception named (see ``run_suite``).  The CLI `props` command runs a suite
and exits nonzero on any failure; the test suite calls the same functions.
"""

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import and_, or_

from . import bitop as bt
from . import duality as du
from .config import BRUTE_FORCE_IDEAL_LIMIT
from .corpus import boolean_lattice, dbool_corpus, three_chain, unlabeled_posets
from .dlattice import (
    DLatticeHom,
    bool_dlattice,
    coordinate_tables,
    dB,
    d_complemented_sides,
    dlattice_equal,
    enumerate_dlattice_homs,
    find_dboolean_iso,
    find_dlattice_iso,
    lambda_of_dislat,
    logic_formula_row,
    logic_order_lattice,
    omega_of_lattice,
    step,
    validate_dboolean,
    validate_dlattice,
    validate_dlattice_hom,
)
from .errors import BistoneError, UnknownSuite
from .ideals import (
    BFF,
    BTT,
    BMap,
    _primes_structural,
    enumerate_d_filter_maps,
    enumerate_d_ideal_maps,
    enumerate_prime_d_ideals,
    filter_generators,
    four_case_values,
    ideal_map,
    idl_dframe,
    is_hom_to_bool_object,
    is_prime_d_ideal,
    is_zero_dimensional_dframe,
    require_covering,
)
from .lattice import (
    bits,
    ideal_carriers,
    ideal_generator,
    join_irreducibles,
    low_bit,
    prime_generators,
    prime_ideals_bruteforce,
)

@dataclass
class CorpusBundle:
    posets: list = field(default_factory=list)
    lattices: list = field(default_factory=list)
    dbools: list = field(default_factory=list)
    dlattices: list = field(default_factory=list)  # non-Boolean d-lattices
    spaces: list = field(default_factory=list)
    validation_failures: list = field(default_factory=list)


def default_bundle():
    posets = unlabeled_posets(4)
    dbools = dbool_corpus(4)
    lattices = [A.plus for A in dbools]  # λ(L).plus is L: birkhoff_corpus(4), built once
    spaces = [bt.stone_space_from_poset(p) for p in posets]
    spaces.append(bt.BiTopSpace(["p", "q"], [0b00, 0b11], [0b00, 0b11]))  # indiscrete pair
    spaces.append(bt.omega_space(["p", "q"], [0b00, 0b10, 0b11]))    # Sierpinski doubled
    dlattices = [bool_dlattice(), omega_of_lattice(three_chain()), omega_of_lattice(boolean_lattice(2))]
    dlattices.extend(bt.dO(s) for s in spaces if s.n <= 3)
    return CorpusBundle(posets, lattices, dbools, dlattices, spaces)


def bundle_from_structures(structures):
    """Sort loaded (name, kind, structure) triples into a bundle, validating
    the d-lattices on the way in."""
    bundle = CorpusBundle()
    for name, kind, obj in structures:
        if kind == "poset":
            bundle.posets.append(obj)
        elif kind == "lattice":
            bundle.lattices.append(obj)
        elif kind in ("dlattice", "dboolean"):
            report = validate_dboolean(obj) if kind == "dboolean" else validate_dlattice(obj)
            if not report.ok:
                bundle.validation_failures.append((name, report))
            elif kind == "dboolean":
                bundle.dbools.append(obj)
            else:
                bundle.dlattices.append(obj)
        elif kind == "bitop":
            bundle.spaces.append(obj)
    return bundle


def all_dlattices(bundle):
    return bundle.dlattices + bundle.dbools


# ---------------------------------------------------------------------------
# lattice_core suite


def check_lattice_laws(bundle):
    for L in bundle.lattices:
        for name, table, other in (("meet", L.meet, L.join), ("join", L.join, L.meet)):
            if any(row[a] != a for a, row in enumerate(table)):
                return False, f"{name} not idempotent"
            if tuple(zip(*table)) != table:
                return False, f"{name} not commutative"
            # (a·b)·c = a·(b·c) for all c at once: row a·b against row a
            # read at the entries of row b
            for row in table:
                if any(table[ab] != tuple(map(row.__getitem__, table[b])) for b, ab in enumerate(row)):
                    return False, f"{name} not associative"
            if any({row[x] for x in other[a]} != {a} for a, row in enumerate(table)):
                return False, f"absorption fails through {name}"
    return True, f"laws hold on {len(bundle.lattices)} lattices"


def check_prime_ideal_oracle(bundle):
    for L in bundle.lattices:
        if L.n > BRUTE_FORCE_IDEAL_LIMIT:
            continue
        fast = set(prime_generators(L))
        slow = set(prime_ideals_bruteforce(L))
        if fast != slow:
            return False, f"prime ideal paths disagree on a {L.n}-element lattice"
        irr = join_irreducibles(L)
        if len(fast) != len(irr):
            return False, "prime ideal count differs from join-irreducible count"
    return True, "principal scan matches brute-force down-set scan"


def check_prime_complement_is_filter(bundle):
    for L in bundle.lattices:
        for u in prime_generators(L):
            comp = ((1 << L.n) - 1) & ~L.down[u]
            for a in bits(comp):
                if L.up[a] & ~comp:
                    return False, "complement of a prime ideal is not an up-set"
                for b in bits(comp):
                    if not (comp >> L.meet[a][b]) & 1:
                        return False, "complement of a prime ideal not meet-closed"
            for x in range(L.n):
                for y in range(L.n):
                    if (comp >> L.join[x][y]) & 1 and not ((comp >> x) & 1 or (comp >> y) & 1):
                        return False, "complement of a prime ideal is not a prime filter"
    return True, "complements of prime ideals are prime filters"


def check_ideals_principal(bundle):
    for L in bundle.lattices:
        if L.n > 12:
            continue
        for mask in ideal_carriers(L):
            gen = ideal_generator(L, mask)  # raises unless principal
            if L.down[gen] != mask:
                return False, "ideal is not the down-set of its maximum"
    return True, "every ideal is principal"


def check_birkhoff_prime_count(bundle):
    for poset, L in zip(bundle.posets, bundle.lattices):
        if len(prime_generators(L)) != poset.n:
            return False, f"birkhoff lattice of a {poset.n}-poset has wrong prime count"
    return True, "birkhoff lattices have one prime ideal per poset element"


# ---------------------------------------------------------------------------
# dlattice suite


def check_validate_corpus(bundle):
    if bundle.validation_failures:
        name, report = bundle.validation_failures[0]
        return False, f"{name}: {report.axiom} {report.message}"
    for dl in all_dlattices(bundle):
        report = validate_dlattice(dl)
        if not report.ok:
            return False, f"corpus d-lattice fails {report.axiom}"
    for A in bundle.dbools:
        report = validate_dboolean(A)
        if not report.ok:
            return False, f"corpus d-Boolean algebra fails {report.axiom}"
    return True, f"{len(all_dlattices(bundle))} structures validate"


def check_logic_order(bundle):
    """Per p, the row over all q of x ⊓ y = (x ∧ ff) ∨ (y ∧ ff) ∨ (x ∧ y)
    against (∧, ∨), and of x ⊔ y (with tt) against (∨, ∧).  As the
    carrier's meet and join are coordinatewise, each row is the product
    of a plus row and a minus row (``logic_formula_row``), and two such rows
    are equal iff both factors are; the first mismatch is named at the
    lowest (p, q), meet before join there."""
    for dl in all_dlattices(bundle):
        P, M, nm = dl.plus, dl.minus, dl.minus.n
        for p in range(dl.size):
            a1, b1 = dl.unpid(p)
            misses = []
            for k, (op, bound, plus_table, minus_table) in enumerate(
                (("meet", dl.ff, P.meet, M.join), ("join", dl.tt, P.join, M.meet))
            ):
                ea, eb = dl.unpid(bound)
                formula = (logic_formula_row(P, a1, ea), logic_formula_row(M, b1, eb))
                coordinatewise = (plus_table[a1], minus_table[b1])
                if formula != coordinatewise:
                    formula_ids, coordinate_ids = (
                        [a * nm + b for a in plus for b in minus] for plus, minus in (formula, coordinatewise)
                    )
                    q = next(q for q, (f, c) in enumerate(zip(formula_ids, coordinate_ids)) if f != c)
                    misses.append((q, k, op))
            if misses:
                q, _, op = min(misses)
                return False, f"logic {op} formula mismatch at ({p},{q})"
        if dl.size <= 40:
            lat = logic_order_lattice(dl)  # build validates all lattice laws
            if lat.top != dl.tt or lat.bot != dl.ff:
                return False, "logic order has wrong bounds"
    return True, "logic order is a bounded lattice; formulas match coordinates"


def check_d_complement_unique_and_antichain(bundle):
    for dl in all_dlattices(bundle):
        both = dl.con_mask & dl.tot_mask
        for a in range(dl.plus.n):
            partners = [b for b in range(dl.minus.n) if (both >> dl.pid(a, b)) & 1]
            if len(partners) > 1:
                return False, "one-sided element with two d-complements"
        pairs = [dl.unpid(p) for p in bits(both)]
        for (a1, b1), (a2, b2) in combinations(pairs, 2):
            if dl.plus.leq(a1, a2) and dl.minus.leq(b1, b2):
                return False, "con ∩ tot is not an antichain"
            if dl.plus.leq(a2, a1) and dl.minus.leq(b2, b1):
                return False, "con ∩ tot is not an antichain"
    return True, "d-complements unique; con ∩ tot an antichain"


def check_dboolean_dagger_formulas(bundle):
    for A in bundle.dbools:
        for a in range(A.plus.n):
            for b in range(A.minus.n):
                if A.in_con(A.pid(a, b)) != A.plus.leq(a, A.dagger_inv[b]):
                    return False, "con differs from the dagger formula"
                if A.in_tot(A.pid(a, b)) != A.minus.leq(A.dagger[a], b):
                    return False, "tot differs from the dagger formula"
    return True, "con/tot recovered from the pairing"


def check_dB_idempotent(bundle):
    for dl in all_dlattices(bundle):
        once = dB(dl).algebra
        twice = dB(once).algebra
        if not dlattice_equal(once, twice):
            return False, "dB is not idempotent"
    for A in bundle.dbools:
        if not dlattice_equal(dB(A).algebra, A):
            return False, "dB moves a d-Boolean algebra"
    return True, "dB idempotent and fixes d-Boolean algebras"


def check_lambda_equivalence(bundle):
    lattices = [L for L in bundle.lattices if L.n <= 8][:6]
    report = du.lambda_equivalence_check(lattices, bundle.dbools)
    if not report["ok"]:
        return False, "hom sets of doubled lattices do not biject with lattice homs"
    return True, f"{len(report['hom_pairs'])} hom-set pairs biject; {len(report['essential'])} canonical isos"


def check_omega_validates(bundle):
    count = 0
    for H in bundle.lattices:
        if H.n < 2 or H.n > 16:
            continue
        validate = validate_dlattice(omega_of_lattice(H))
        if not validate.ok:
            return False, f"omega of a {H.n}-element lattice fails {validate.axiom}"
        count += 1
    return True, f"omega validates on {count} lattices"


# ---------------------------------------------------------------------------
# ideals_frames suite


def check_pair_map_roundtrip(bundle):
    for dl in all_dlattices(bundle):
        if dl.size > 100:
            continue
        P, M = dl.plus, dl.minus
        for g in enumerate_d_ideal_maps(dl):
            u, v = ideal_generator(P, g.zero_set_plus()), ideal_generator(M, g.zero_set_minus())
            require_covering(dl, P.down[u], M.down[v], False)
            if ideal_map(dl, u, v).values != g.values:
                return False, "d-ideal map does not survive the pair round trip"
        for f in enumerate_d_filter_maps(dl):
            u, v = filter_generators(f)
            require_covering(dl, P.up[u], M.up[v], True)
            if four_case_values(dl, P.up[u], M.up[v]) != f.values:
                return False, "d-filter map does not survive the pair round trip"
    return True, "pair ↔ map round trips are identities"


def check_prime_triple_equivalence(bundle):
    for dl in all_dlattices(bundle):
        if dl.size <= 6:
            maps = _all_bmaps(dl)
        else:
            maps = _candidate_bmaps(dl)
        for m in maps:
            two_validators = is_prime_d_ideal(dl, m)
            hom = is_hom_to_bool_object(dl, m)
            if two_validators != hom:
                return False, "validator pair disagrees with the hom characterization"
    return True, "prime ⟺ both validators ⟺ hom into the four-element object"


def _all_bmaps(dl):
    return [BMap(dl, values) for values in product(range(4), repeat=dl.size)]


def _candidate_bmaps(dl):
    out = list(enumerate_d_ideal_maps(dl)) + list(enumerate_d_filter_maps(dl))
    out.extend(enumerate_prime_d_ideals(dl))
    return out


def check_proper_filter_ideal_props(bundle):
    for dl in all_dlattices(bundle):
        if dl.size > 100:
            continue
        # a proper d-filter is the join of its values at (a, 0) and (0, b),
        # a proper d-ideal the meet of its values at (a, 1) and (1, b)
        for enumerate_maps, a0, b0, combine, detail in (
            (enumerate_d_filter_maps, dl.plus.bot, dl.minus.bot, or_, "proper d-filter fails join decomposition"),
            (enumerate_d_ideal_maps, dl.plus.top, dl.minus.top, and_, "proper d-ideal fails meet decomposition"),
        ):
            for h in enumerate_maps(dl):
                if h(dl.tt) != BTT or h(dl.ff) != BFF:
                    continue
                for a in range(dl.plus.n):
                    for b in range(dl.minus.n):
                        if h.value_at(a, b) != combine(h.value_at(a, b0), h.value_at(a0, b)):
                            return False, detail
    return True, "proper map decomposition identities hold"


def check_dbool_if(bundle):
    for A in bundle.dbools:
        if A.plus.n > 9 or A.minus.n > 9:
            continue
        filters = enumerate_d_filter_maps(A)
        ideals = enumerate_d_ideal_maps(A)
        for f in filters:
            for g in ideals:
                if f.leq(g) and f.values != g.values:
                    return False, "d-filter below a d-ideal without equality"
    return True, "on d-Boolean algebras, filter ≤ ideal forces equality"


def check_prime_count_bijection(bundle):
    for A in bundle.dbools:
        structural = _primes_structural(A)
        brute = enumerate_prime_d_ideals(A)
        if sorted(g.values for g in structural) != sorted(g.values for g in brute):
            return False, "structural and brute-force prime enumerations disagree"
        if len(structural) != len(prime_generators(A.plus)):
            return False, "prime d-ideal count differs from plus-side prime ideals"
    return True, "prime d-ideals biject with prime ideals of the plus lattice"


def check_dbool_vs_dfrm(bundle):
    # the finite collapse (see ideals.idl_dframe): ε and κ are the identity
    for A in bundle.dbools:
        df = idl_dframe(A)
        if not is_zero_dimensional_dframe(df):
            return False, "ideal frame of a d-Boolean algebra not compact zero-dimensional"
        cor = dB(df)
        if (cor.embed_plus, cor.embed_minus) != (tuple(range(A.plus.n)), tuple(range(A.minus.n))):
            return False, "ε and κ are not the identity on the ideal frame"
        if find_dboolean_iso(A, cor.algebra) is None:
            return False, "dB ∘ idl does not recover the algebra"
    return True, "dB∘idl ≅ id and idl∘dB ≅ id with identity composites"


def check_eta_unit(bundle):
    for dl in all_dlattices(bundle):
        df = idl_dframe(dl)  # a ↦ ↓a is the identity on indices
        report = validate_dlattice_hom(DLatticeHom(dl, df, tuple(range(dl.plus.n)), tuple(range(dl.minus.n))))
        if not report.ok:
            return False, f"eta is not a hom: {report.message}"
        unreflected = (df.con_mask & ~dl.con_mask) | (df.tot_mask & ~dl.tot_mask)
        if unreflected:
            return False, f"eta does not reflect con/tot at {dl.pair_label(low_bit(unreflected))}"
    return True, "principal-ideal unit is a hom and reflects con/tot"


def tot_is_upper_set(dl):
    """Compactness of a finite d-frame, tot Scott-open, which is the
    ``tot-upper-set`` clause of ``validate_dlattice`` (see
    ``ideals.idl_dframe``)."""
    return not step(dl.tot_mask, coordinate_tables(dl).up_steps) & ~dl.tot_mask


def check_compact_elements(bundle):
    for dl in all_dlattices(bundle):
        if not tot_is_upper_set(dl):
            return False, "tot is not an upper set"
        # Compactness of a d-complemented a in directed-closure form needs no
        # scan: for finite nonempty S with a ≤ ⋁S, the closure of S under
        # binary joins is directed and contains ⋁S itself, a member above a.
    return True, "d-complemented elements are compact (directed-closure form)"


def check_d_complemented_ideals(bundle):
    for dl in all_dlattices(bundle):
        # ↓i has the index of i in the ideal frame (see ideals.idl_dframe)
        if d_complemented_sides(idl_dframe(dl)) != d_complemented_sides(dl):
            return False, "d-complemented ideals differ from the principal ideals on d-complemented elements"
    return True, "d-complemented ideals are exactly principal ones on d-complemented elements"


# ---------------------------------------------------------------------------
# bitop suite


def check_finite_compactness(bundle):
    # finite spaces are compact (see bitop.is_compact); the statement that
    # can fail is the frame-side one, tot of dO(s) being Scott-open
    for s in bundle.spaces:
        if not tot_is_upper_set(bt.dO(s)):
            return False, "tot of a corpus space's d-frame is not Scott-open"
    return True, "finite compactness is universal"


def check_dclop_is_dB_dO(bundle):
    for s in bundle.spaces:
        A = bt.dclop_algebra(s)
        B = dB(bt.dO(s)).algebra
        if not dlattice_equal(A, B):
            return False, "dClop differs from dB ∘ dO"
    return True, "dClop = dB ∘ dO element-for-element"


def check_stone_type_correspondence(bundle):
    for s in bundle.spaces:
        if s.n > 4:
            continue
        maps = set(bt.continuous_maps_to_bool_space(s))
        pairs = [
            bt.map_from_dclopen_pair(s, u, v)
            for u in bt.plus_open_minus_closed(s)
            for v in bt.minus_open_plus_closed(s)
        ]
        if len(pairs) != len(set(pairs)) or set(pairs) != maps:
            return False, "d-clopen pairs do not biject with continuous maps"
    return True, "continuous maps into the dualizing space biject with d-clopen pairs"


def check_stone_implies_bi_t0(bundle):
    for s in bundle.spaces:
        if not bt.is_stone(s):
            continue
        for fam in (s.tau_plus, s.tau_minus):
            for x in range(s.n):
                for y in range(x + 1, s.n):
                    if not any(((u >> x) & 1) != ((u >> y) & 1) for u in fam):
                        return False, "a Stone space is not bi-T0"
    return True, "Stone spaces are bi-T0"


def check_order_separated_duality(bundle):
    for s in bundle.spaces:
        if not bt.is_order_separated(s):
            continue
        spec = bt.specialization(s)
        for x in range(s.n):
            for y in range(s.n):
                if ((spec.leq_plus[x] >> y) & 1) != ((spec.leq_minus[y] >> x) & 1):
                    return False, "order-separated space with non-dual specializations"
    return True, "in order-separated spaces the specialization orders are dual"


def check_poset_spaces_sober(bundle):
    for p in bundle.posets:
        s = bt.stone_space_from_poset(p)
        if not bt.is_d_sober(s):
            return False, "a poset space is not d-sober"
        if not du.counit_roundtrip(s).is_iso:
            return False, "a poset space fails its spectrum round trip"
    return True, "poset spaces are d-sober and round-trip through the spectrum"


def check_stone_characterizations_exhaustive(bundle):
    """``is_stone``, the finite Stone lemma, against the paper's two
    characterizations (T0, compact and zero-dimensional; compact and
    totally order-separated) on every labeled space of at most 3 points
    and every corpus space; False names the first space they split on."""
    spaces = []
    for n in range(1, 4):
        tops = du.enumerate_topologies(n)
        labels = [f"x{i}" for i in range(n)]
        spaces += [bt.BiTopSpace(labels, tp, tm) for tp in tops for tm in tops]
    spaces += bundle.spaces
    for k, s in enumerate(spaces):
        lemma = bt.is_stone(s)
        via_zero_dim = bt.is_T0(s) and bt.is_compact(s) and bt.is_zero_dimensional(s)
        via_separation = bt.is_compact(s) and bt.is_totally_order_separated(s)
        if not lemma == via_zero_dim == via_separation:
            return False, (
                f"space {k} (tau_plus {list(s.tau_plus)}, tau_minus {list(s.tau_minus)}): Stone lemma "
                f"{lemma}, T0/zero-dimensional {via_zero_dim}, totally order-separated {via_separation}"
            )
    return True, f"both Stone characterizations agree on {len(spaces)} spaces"


# ---------------------------------------------------------------------------
# duality suite


def check_unit_roundtrips(bundle):
    for A in bundle.dbools:
        w = du.unit_roundtrip(A)
        if not w.is_iso:
            return False, f"unit round trip failed: {w.detail}"
    return True, f"unit round trip ISO on {len(bundle.dbools)} algebras"


def check_counit_roundtrips(bundle):
    count = 0
    for s in bundle.spaces:
        if not bt.is_stone(s):
            continue
        w = du.counit_roundtrip(s)
        if not w.is_iso:
            return False, f"counit round trip failed: {w.detail}"
        count += 1
    return True, f"counit round trip ISO on {count} Stone spaces"


def check_spectra_are_stone(bundle):
    for A in bundle.dbools:
        if not bt.is_stone(du.dspec(A)):
            return False, "spectrum of a d-Boolean algebra is not Stone"
    return True, "spectra of d-Boolean algebras are Stone"


def check_phi_embedding(bundle):
    for A in bundle.dbools:
        spec = du.spectrum(A)
        for a1 in range(A.plus.n):
            for a2 in range(A.plus.n):
                if a1 != a2 and spec.phi_plus[a1] == spec.phi_plus[a2]:
                    return False, "phi+ not injective"
                subset = spec.phi_plus[a1] & ~spec.phi_plus[a2] == 0
                if subset != A.plus.leq(a1, a2):
                    return False, "phi+ not an order embedding"
    return True, "phi+ is an injective order embedding"


def check_frame_space_duality(bundle):
    count = 0
    for dl in all_dlattices(bundle):
        if not is_zero_dimensional_dframe(dl) or dl.size > 64:
            continue
        if find_dlattice_iso(bt.dO(du.dspec(dl)), dl) is None:
            return False, "dO ∘ dSpec does not recover a compact zero-dimensional d-frame"
        count += 1
    return True, f"frame/space duality verified on {count} d-frames"


def check_dspec_is_dpt_idl(bundle):
    for dl in all_dlattices(bundle):
        if dl.size > 150:
            continue
        if not du.dspec_equals_dpt_idl(dl):
            return False, "spectrum differs from d-points of the ideal frame"
    return True, "dSpec = dpt ∘ idl on the corpus"


def check_spatiality(bundle):
    for A in bundle.dbools:
        ok, detail = du.spatiality_check(A)
        if not ok:
            return False, detail
    return True, "spatiality clauses hold for corpus d-Boolean algebras"


def check_classical_squares(bundle):
    for k in (1, 2, 3):
        if not du.classical_square_check(boolean_lattice(k)):
            return False, f"classical square fails on the {2 ** k}-element Boolean lattice"
    return True, "omega squares commute on Boolean lattices 2, 4, 8"


def check_extremal_disconnectedness(bundle):
    for s in bundle.spaces:
        if not bt.is_zero_dimensional(s):
            continue
        if not bt.is_extremally_disconnected(s):
            return False, "a finite zero-dimensional space is not extremally disconnected"
        if not du.complete_extremally_disconnected_check(s):
            return False, "completeness biconditional fails"
    return True, "zero-dimensional corpus spaces are extremally disconnected with complete algebras"


def check_naturality(bundle):
    duals = []  # per lattice: its algebra, spectrum, unit and d-clopen algebra
    for L in [L for L in bundle.lattices if 2 <= L.n <= 6][:4]:
        A = lambda_of_dislat(L)
        spec = du.spectrum(A)
        duals.append((A, spec, du.unit_roundtrip(A), bt.dclop_algebra(spec.space)))
    checked = 0
    for A, specA, unitA, CA in duals:
        for B, specB, unitB, CB in duals:
            for hom in enumerate_dlattice_homs(A, B)[:8]:
                mapping = []
                for g in specB.primes:
                    composed = tuple(g.values[hom.apply(p)] for p in range(A.size))
                    matches = [k for k, h in enumerate(specA.primes) if h.values == composed]
                    if len(matches) != 1:
                        return False, "composite of a prime with a hom is not a unique prime"
                    mapping.append(matches[0])
                if not bt.is_continuous(mapping, specB.space, specA.space):
                    return False, "spectrum of a hom is not continuous"
                if not (unitA.is_iso and unitB.is_iso):
                    return False, "unit failed during naturality check"
                for a in range(A.plus.n):
                    u = CA.plus.sets[unitA.forward.fplus[a]]
                    pre = bt.preimage(mapping, specB.space.n, u)
                    if pre != CB.plus.sets[unitB.forward.fplus[hom.fplus[a]]]:
                        return False, "duality square does not commute on the plus side"
                checked += 1
    return True, f"naturality verified on {checked} morphisms"


SUITES = {
    "lattice_core": [
        ("lattice-laws", check_lattice_laws),
        ("prime-ideal-oracle", check_prime_ideal_oracle),
        ("prime-complement-filter", check_prime_complement_is_filter),
        ("ideals-principal", check_ideals_principal),
        ("birkhoff-prime-count", check_birkhoff_prime_count),
    ],
    "dlattice": [
        ("validate-corpus", check_validate_corpus),
        ("logic-order", check_logic_order),
        ("d-complement-unique-antichain", check_d_complement_unique_and_antichain),
        ("dagger-formulas", check_dboolean_dagger_formulas),
        ("dB-idempotent", check_dB_idempotent),
        ("lambda-equivalence", check_lambda_equivalence),
        ("omega-validates", check_omega_validates),
    ],
    "ideals_frames": [
        ("pair-map-roundtrip", check_pair_map_roundtrip),
        ("prime-triple-equivalence", check_prime_triple_equivalence),
        ("proper-map-decomposition", check_proper_filter_ideal_props),
        ("dbool-filter-ideal-equality", check_dbool_if),
        ("prime-count-bijection", check_prime_count_bijection),
        ("dbool-vs-dfrm", check_dbool_vs_dfrm),
        ("eta-unit", check_eta_unit),
        ("compact-elements", check_compact_elements),
        ("d-complemented-ideals", check_d_complemented_ideals),
    ],
    "bitop": [
        ("finite-compactness", check_finite_compactness),
        ("dclop-is-dB-dO", check_dclop_is_dB_dO),
        ("stone-type-correspondence", check_stone_type_correspondence),
        ("stone-implies-bi-t0", check_stone_implies_bi_t0),
        ("order-separated-duality", check_order_separated_duality),
        ("poset-spaces-sober", check_poset_spaces_sober),
        ("stone-characterizations", check_stone_characterizations_exhaustive),
    ],
    "duality": [
        ("unit-roundtrips", check_unit_roundtrips),
        ("counit-roundtrips", check_counit_roundtrips),
        ("spectra-are-stone", check_spectra_are_stone),
        ("phi-embedding", check_phi_embedding),
        ("frame-space-duality", check_frame_space_duality),
        ("dspec-is-dpt-idl", check_dspec_is_dpt_idl),
        ("spatiality", check_spatiality),
        ("classical-squares", check_classical_squares),
        ("extremal-disconnectedness", check_extremal_disconnectedness),
        ("naturality", check_naturality),
    ],
}


def run_suite(name, bundle):
    """Run every check in a suite; returns a list of result rows.  A check
    that raises a ``BistoneError`` or a ``ValueError`` (``ideal_generator``
    rejecting a carrier, say) gives a failing row naming the exception, and
    the remaining checks still run."""
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; available: {sorted(SUITES)}")
    rows = []
    for check_name, fn in SUITES[name]:
        try:
            ok, detail = fn(bundle)
        except (BistoneError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append({"check": check_name, "ok": ok, "detail": detail})
    return rows
