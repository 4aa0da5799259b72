"""The covering-pair scans of ``ideals`` against the code they replaced,
kept here as test-only references: the d-ideal and d-filter map
enumeration that built every principal pair's four-case map under
``try/except CoveringViolation`` and ran its validator, the per-prime
``prime_opens`` pass over the values of a list of primes, and the prime
sandwich (a prime d-ideal between every d-filter map and every d-ideal
map above it), decided by a loop that re-verifies every candidate pair
the same way and checked against the full prime enumeration.  The
corpora are the default bundle, λ(birkhoff(p)) and the d-clopen algebra of
the Stone space of every poset with at most 5 elements, and the valid Q2
candidates at bound 4."""

import pytest
from test_validate_oracle import _q2_candidates

from bistone import duality as du
from bistone.bitop import dclop_algebra, stone_space_from_poset
from bistone.corpus import unlabeled_posets
from bistone.dlattice import lambda_of_dislat, validate_dlattice
from bistone.errors import CoveringViolation
from bistone.ideals import (
    BFF,
    BMap,
    BTT,
    enumerate_d_filter_maps,
    enumerate_d_ideal_maps,
    enumerate_prime_d_ideals,
    filter_generators,
    four_case_values,
    ideal_map,
    is_prime_d_ideal,
    prime_pair_opens,
    prime_pairs,
    require_covering,
    validate_d_filter_map,
    validate_d_ideal_map,
)
from bistone.lattice import birkhoff, prime_generators
from bistone.suites import all_dlattices, default_bundle


@pytest.fixture(scope="module")
def corpora():
    posets = unlabeled_posets(5)
    q2 = [dl for dl in _q2_candidates(4) if validate_dlattice(dl).ok]
    assert (len(posets), len(q2)) == (87, 135)
    return {
        "bundle": all_dlattices(default_bundle()),
        "lambda": [lambda_of_dislat(birkhoff(p)) for p in posets],
        "dclop": [dclop_algebra(stone_space_from_poset(p)) for p in posets],
        "q2": q2,
    }


def principal_pair_maps_validated(dl, ones):
    """Reference: the four-case map of every principal pair that covers,
    kept when its validator passes: the d-filter maps (up-set one sets)
    when ``ones``, else the d-ideal maps (down-set zero sets)."""
    plus_rows, minus_rows = (dl.plus.up, dl.minus.up) if ones else (dl.plus.down, dl.minus.down)
    validate = validate_d_filter_map if ones else validate_d_ideal_map
    out = []
    for u in plus_rows:
        for v in minus_rows:
            try:
                require_covering(dl, u, v, ones)
            except CoveringViolation:
                continue
            m = BMap(dl, four_case_values(dl, u, v) if ones else four_case_values(dl, ~u, ~v))
            if validate(dl, m).ok:
                out.append(m)
    return out


def prime_sandwich_by_candidates(dl, fmap, gmap):
    """Over the prime ideals that contain the zero sets of g and avoid the
    one sets of f, lowest generator first, the first pair whose map covers
    con and passes both validators and f ≤ h ≤ g, or None."""
    gplus, gminus = gmap.zero_set_plus(), gmap.zero_set_minus()
    fu, fv = filter_generators(fmap)
    fplus, fminus = dl.plus.up[fu], dl.minus.up[fv]
    plus_candidates, minus_candidates = (
        [u for u in prime_generators(L) if g & ~L.down[u] == 0 and L.down[u] & f == 0]
        for L, g, f in ((dl.plus, gplus, fplus), (dl.minus, gminus, fminus))
    )
    for u in plus_candidates:
        for v in minus_candidates:
            try:
                require_covering(dl, dl.plus.down[u], dl.minus.down[v], False)
            except CoveringViolation:
                continue
            h = ideal_map(dl, u, v)
            if is_prime_d_ideal(dl, h) and fmap.leq(h) and h.leq(gmap):
                return h
    return None


def prime_opens(dl, primes):
    """Reference: φ₊(a), the primes with value tt at (a, 0), and φ₋(b), those
    with value ff at (0, b), as bitmasks over the indices of ``primes``, in
    one pass per prime over its values."""
    nm = dl.minus.n
    row = dl.plus.bot * nm
    phi_plus, phi_minus = [0] * dl.plus.n, [0] * nm
    for k, g in enumerate(primes):
        bit = 1 << k
        for a, v in enumerate(g.values[dl.minus.bot::nm]):
            if v == BTT:
                phi_plus[a] |= bit
        for b, v in enumerate(g.values[row:row + nm]):
            if v == BFF:
                phi_minus[b] |= bit
    return tuple(phi_plus), tuple(phi_minus)


@pytest.mark.parametrize("name", ["bundle", "lambda", "dclop", "q2"])
def test_map_enumerations_match_validated_scan(corpora, name):
    counts = {False: 0, True: 0}
    for dl in corpora[name]:
        for ones, enumerate_maps in ((False, enumerate_d_ideal_maps), (True, enumerate_d_filter_maps)):
            got = enumerate_maps(dl)
            want = principal_pair_maps_validated(dl, ones)
            assert [m.values for m in got] == [m.values for m in want]
            assert all(type(m) is BMap and m.dlattice is dl for m in got)
            counts[ones] += len(got)
    assert min(counts.values()) > len(corpora[name])


@pytest.mark.parametrize("name", ["bundle", "lambda", "dclop", "q2"])
def test_prime_sandwich_matches_candidate_loop(corpora, name):
    """Every d-filter map f below every d-ideal map g has a prime d-ideal
    between them, and the candidate loop returns the first of those in the
    order of ``enumerate_prime_d_ideals``."""
    checked = 0
    for dl in corpora[name]:
        primes = enumerate_prime_d_ideals(dl)
        filters = enumerate_d_filter_maps(dl)
        for g in enumerate_d_ideal_maps(dl):
            for f in filters:
                if f.leq(g):
                    between = [h.values for h in primes if f.leq(h) and h.leq(g)]
                    assert between and prime_sandwich_by_candidates(dl, f, g).values == between[0]
                    checked += 1
    assert checked > len(corpora[name])


@pytest.mark.parametrize("name", ["bundle", "lambda", "dclop", "q2"])
def test_opens_from_generators_match_values_pass(corpora, name):
    """``prime_pair_opens`` on the generators against ``prime_opens`` on the
    maps, in the enumeration's order and in the spectrum's."""
    for dl in corpora[name]:
        assert prime_pair_opens(dl, prime_pairs(dl)) == prime_opens(dl, enumerate_prime_d_ideals(dl))
        spec = du.spectrum(dl)
        assert (spec.phi_plus, spec.phi_minus) == prime_opens(dl, spec.primes)
        assert list(spec.primes) == sorted(enumerate_prime_d_ideals(dl), key=lambda g: g.values)
