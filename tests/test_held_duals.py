"""Each structure's dual is built once and held on it: ``duality.spectrum``
on a d-lattice and ``bitop.dclop_algebra`` on a bitopological space.  A
repeat call returns the same object, that object equals the dual built on
a fresh copy of the input, distinct inputs hold distinct duals, nothing is
held when validation fails, and the five verdicts of one acceptance-corpus
item build each of its two spectra and two d-clopen algebras once."""

import pytest

from bistone import bitop as bt
from bistone import duality as du
from bistone.corpus import unlabeled_posets
from bistone.dlattice import DLattice, lambda_of_dislat
from bistone.errors import InvariantViolation
from bistone.lattice import birkhoff
from bistone.report import StructReport
from bistone.serialize import dlattice_to_json


def corpus_items():
    """(λ(D(p)), the Stone space of p) for the 87 posets with at most 5
    elements, each built fresh."""
    return [(lambda_of_dislat(birkhoff(p)), bt.stone_space_from_poset(p)) for p in unlabeled_posets(5)]


def spectrum_values(spec):
    return (
        [g.values for g in spec.primes],
        spec.phi_plus,
        spec.phi_minus,
        spec.space.labels,
        spec.space.tau_plus,
        spec.space.tau_minus,
    )


def test_a_repeat_call_returns_the_same_dual():
    items = corpus_items()
    assert len(items) == 87
    for A, X in items:
        spec, clop = du.spectrum(A), bt.dclop_algebra(X)
        assert du.spectrum(A) is spec and du.dspec(A) is spec.space
        assert bt.dclop_algebra(X) is clop
        assert bt.dclop_algebra(spec.space) is bt.dclop_algebra(spec.space)
    assert len({id(du.spectrum(A)) for A, _ in items}) == 87
    assert len({id(bt.dclop_algebra(X)) for _, X in items}) == 87


def refuses_writes(x, names):
    for name in names + ("unknown",):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(x, name)


def test_a_dlattice_is_immutable_and_holds_its_spectrum_once(monkeypatch):
    """A ``DLattice`` and a ``DBooleanAlgebra`` refuse ``setattr`` and
    ``delattr`` on every field, before and after their spectrum is held;
    ``__init__`` leaves ``held_spectrum`` unset, and the first
    ``spectrum`` call writes it, once: the repeat call enumerates no
    prime."""
    A = lambda_of_dislat(birkhoff(unlabeled_posets(3)[2]))
    dl = DLattice(A.plus, A.minus, A.con_mask, A.tot_mask)
    enumerations = 0
    genuine = du.prime_pairs

    def counting(d):
        nonlocal enumerations
        enumerations += 1
        return genuine(d)

    monkeypatch.setattr(du, "prime_pairs", counting)
    for x, names in ((dl, ()), (A, ("dagger", "dagger_inv"))):
        names = ("plus", "minus", "con_mask", "tot_mask") + names
        before = [getattr(x, name) for name in names]
        assert not hasattr(x, "held_spectrum")
        refuses_writes(x, names + ("held_spectrum",))
        assert not hasattr(x, "held_spectrum")
        enumerations = 0
        spec = du.spectrum(x)
        assert x.held_spectrum is spec and enumerations == 1
        assert du.spectrum(x) is spec and enumerations == 1
        refuses_writes(x, names + ("held_spectrum",))
        assert x.held_spectrum is spec and [getattr(x, name) for name in names] == before


def test_the_held_dual_equals_the_dual_of_a_fresh_input():
    for A, X in corpus_items():
        held = du.spectrum(A)
        fresh = du.spectrum(DLattice(A.plus, A.minus, A.con_mask, A.tot_mask))
        assert fresh is not held and spectrum_values(fresh) == spectrum_values(held)
        held = bt.dclop_algebra(X)
        fresh = bt.dclop_algebra(bt.BiTopSpace(X.labels, X.tau_plus, X.tau_minus))
        assert fresh is not held and dlattice_to_json(fresh) == dlattice_to_json(held)


def test_a_dclop_algebra_that_fails_validation_is_not_held(monkeypatch):
    """The guard runs before the algebra is held: with validation failing,
    every call raises, and once it passes again the space gets its algebra."""
    _, X = corpus_items()[3]
    monkeypatch.setattr(bt, "validate_dboolean", lambda A: StructReport.failed("patched"))
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="dClop failed validation: patched"):
            bt.dclop_algebra(X)
    monkeypatch.undo()
    assert bt.dclop_algebra(X) is bt.dclop_algebra(X)


def test_one_corpus_item_builds_each_dual_once(monkeypatch):
    """The five verdicts of one acceptance-corpus item ask for the spectra
    of A and of dClop X three times in all, and for the d-clopen algebras of
    X and of dSpec A three times: each is built once (a ``Spectrum`` or a
    ``DBooleanAlgebra`` constructed), so 2 of each.  Asked again, the item
    builds none."""
    built = {"spectrum": 0, "dclop": 0}

    def count_builds(module, attr, key):
        genuine = getattr(module, attr)

        def build(*args):
            built[key] += 1
            return genuine(*args)

        monkeypatch.setattr(module, attr, build)

    count_builds(du, "Spectrum", "spectrum")
    count_builds(bt, "DBooleanAlgebra", "dclop")
    A, X = corpus_items()[-1]

    def verdicts():
        return (
            du.unit_roundtrip(A).is_iso,
            du.counit_roundtrip(X).is_iso,
            du.spatiality_check(A)[0],
            du.dspec_equals_dpt_idl(A),
            du.complete_extremally_disconnected_check(X),
        )

    assert verdicts() == (True,) * 5
    assert built == {"spectrum": 2, "dclop": 2}
    assert verdicts() == (True,) * 5
    assert built == {"spectrum": 2, "dclop": 2}
