"""Deterministic corpora of small structures.

Unlabeled posets are enumerated as transitive subrelations of the natural
strict order (every poset admits a linear extension, so each isomorphism
class has such a representative) and deduplicated by canonical form.
Known counts per size (A000112): 1, 2, 5, 16, 63, 318 for one to six
elements; the generator raises ``InvariantViolation`` when a count differs.
The distributive lattices are the down-set lattices of these (Birkhoff).
"""

from functools import lru_cache

from .dlattice import lambda_of_dislat
from .errors import BoundsTooLarge, InvariantViolation
from .lattice import FinitePoset, birkhoff, build_lattice, down_sets, lattice_from_family, transitive_relations

KNOWN_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}


@lru_cache(maxsize=None)
def unlabeled_posets_of_size(n):
    """All unlabeled posets with exactly n elements, canonical order."""
    if n > 6:
        raise BoundsTooLarge("poset enumeration capped at 6 elements")
    if n == 0:
        return ()
    found = {}
    for rows in transitive_relations(n, [(i, j) for i in range(n) for j in range(i + 1, n)]):
        poset = FinitePoset.from_rows([chr(ord("a") + i) for i in range(n)], rows)
        sig = poset.isomorphism_signature()
        if sig not in found:
            found[sig] = poset
    posets = tuple(found[s] for s in sorted(found))
    if n in KNOWN_POSET_COUNTS and len(posets) != KNOWN_POSET_COUNTS[n]:
        raise InvariantViolation(
            f"expected {KNOWN_POSET_COUNTS[n]} posets of size {n}, got {len(posets)}"
        )
    return posets


def unlabeled_posets(max_n):
    """All unlabeled posets with 1..max_n elements."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(unlabeled_posets_of_size(n))
    return out


def poset_counts(max_n):
    return {n: len(unlabeled_posets_of_size(n)) for n in range(1, max_n + 1)}


def birkhoff_corpus(max_n):
    """Down-set lattices of the poset corpus."""
    return [birkhoff(p) for p in unlabeled_posets(max_n)]


def dbool_corpus(max_n):
    """d-Boolean algebras of the lattice corpus."""
    return [lambda_of_dislat(L) for L in birkhoff_corpus(max_n)]


def distributive_lattices(max_size):
    """Unlabeled bounded distributive lattices with 2..max_size elements,
    sorted by signature: the down-set lattices D(p) of the posets p with
    1..max_size − 1 elements and at most max_size down-sets.  None is
    missed: by Birkhoff, L ≅ D(J(L)), and |J(L)| < |L| as bot is not
    join-irreducible.  None appears twice: J(D(p)) ≅ p, as the
    join-irreducible down-sets are the principal ones ↓x, ordered as x; so
    D(p) ≅ D(q) iff p ≅ q, and the posets are pairwise non-isomorphic."""
    lattices = [birkhoff(p) for p in unlabeled_posets(max_size - 1) if len(down_sets(p)) <= max_size]
    return sorted(lattices, key=lambda L: L.poset.isomorphism_signature())


# -- named fixtures ----------------------------------------------------------


def chain(n):
    labels = ["0"] + [f"c{i}" for i in range(1, n - 1)] + (["1"] if n > 1 else [])
    return build_lattice(labels, [[i <= j for j in range(n)] for i in range(n)])


def three_chain():
    return chain(3)


def boolean_lattice(k):
    """2^k as the lattice of subsets of k atoms."""
    return lattice_from_family(k, list(range(1 << k)), [f"a{i}" for i in range(k)])
