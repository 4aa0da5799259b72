"""The named invariant suites must pass wholesale on the default corpus,
and a row reports False when its check fails or raises."""

import json

import pytest
from test_census_kernels import drop_last_prime_generator

from bistone import bitop as bt
from bistone import dlattice as dlattice_module
from bistone import duality as du
from bistone import lattice as lattice_module
from bistone import suites
from bistone.cli import main
from bistone.corpus import birkhoff_corpus
from bistone.dlattice import DLattice
from bistone.errors import CoveringViolation, UnknownSuite
from bistone.ideals import BMap, four_case_values, ideal_map
from bistone.lattice import low_bit
from bistone.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, bundle):
    rows = run_suite(name, bundle)
    failures = [r for r in rows if not r["ok"]]
    assert not failures, failures


def test_default_bundle_builds_its_lattices_once(bundle):
    """The bundle's lattices are the plus sides of its d-Boolean algebras,
    λ(L).plus being L, and have the orders, bounds and tables of
    ``birkhoff_corpus(4)``."""
    assert len(bundle.lattices) == len(bundle.dbools) == 24
    assert all(L is A.plus for L, A in zip(bundle.lattices, bundle.dbools))
    for L, want in zip(bundle.lattices, birkhoff_corpus(4)):
        assert (L.labels, L.up, L.bot, L.top, L.meet, L.join, L.sets) == (
            want.labels, want.up, want.bot, want.top, want.meet, want.join, want.sets
        )


def test_unknown_suite_rejected(bundle):
    with pytest.raises(UnknownSuite):
        run_suite("wibble", bundle)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_raising_row_reports_and_later_rows_run(monkeypatch, capsys, side):
    """With a prime generator of one side dropped, the spatiality guard
    raises; the CLI run still prints every row of the suite, the
    spatiality row as a failure naming the guard's exception, and exits 1.
    The dropped generator reaches every row that reads prime d-ideals, so
    the later row that must pass is one that reads none."""
    drop_last_prime_generator(monkeypatch, side)
    assert main(["props", "--suite", "duality"]) == 1
    out, err = capsys.readouterr()
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows] == [name for name, _ in SUITES["duality"]] and len(rows) == 10
    sign = "₊" if side == "plus" else "₋"
    guard = f"InvariantViolation: spatiality clause (i): φ{sign} is not injective on a d-lattice"
    assert rows[6] == {"check": "spatiality", "ok": False, "detail": guard}
    assert f"FAIL duality/spatiality: {guard}\n" in err
    assert rows[8]["check"] == "extremal-disconnectedness" and rows[8]["ok"]


def test_eta_unit_row_fails_when_eta_does_not_reflect_con(bundle, monkeypatch):
    real = suites.idl_dframe

    def idl_with_larger_con(dl):
        """The ideal frame with its lowest inconsistent pair made
        consistent: the unit is still a hom, but no longer reflects con."""
        df = real(dl)
        return DLattice(df.plus, df.minus, df.con_mask | 1 << low_bit(~df.con_mask), df.tot_mask)

    assert suites.check_eta_unit(bundle) == (True, "principal-ideal unit is a hom and reflects con/tot")
    monkeypatch.setattr(suites, "idl_dframe", idl_with_larger_con)
    assert suites.check_eta_unit(bundle) == (False, "eta does not reflect con/tot at (tt,ff)")


@pytest.mark.parametrize("side", ["ideal", "filter"])
def test_pair_map_roundtrip_row_checks_covering(bundle, monkeypatch, side):
    """Fed the four-case map of a pair that does not cover con (tot), which
    survives the rebuild from its generators unchanged, the row raises
    instead of passing."""

    def non_covering(dl):
        if side == "ideal":
            return ideal_map(dl, dl.plus.bot, dl.minus.bot)
        return BMap(dl, four_case_values(dl, 1 << dl.plus.top, 1 << dl.minus.top))

    other = "filter" if side == "ideal" else "ideal"
    monkeypatch.setattr(suites, f"enumerate_d_{side}_maps", lambda dl: [non_covering(dl)])
    monkeypatch.setattr(suites, f"enumerate_d_{other}_maps", lambda dl: [])
    what = "consistent" if side == "ideal" else "total"
    with pytest.raises(CoveringViolation, match=f"{what} pair"):
        suites.check_pair_map_roundtrip(bundle)


@pytest.mark.parametrize("side, detail", [("filter", "d-filter fails join"), ("ideal", "d-ideal fails meet")])
def test_proper_map_decomposition_row_names_the_failing_side(bundle, monkeypatch, side, detail):
    """Fed a proper map that is 0 off tt and ff on one side and nothing on
    the other, the row fails with that side's detail."""

    def tt_ff_only(dl):
        values = [0] * dl.size
        values[dl.tt], values[dl.ff] = 1, 2
        return [BMap(dl, tuple(values))]

    other = "filter" if side == "ideal" else "ideal"
    monkeypatch.setattr(suites, f"enumerate_d_{side}_maps", tt_ff_only)
    monkeypatch.setattr(suites, f"enumerate_d_{other}_maps", lambda dl: [])
    assert suites.check_proper_filter_ideal_props(bundle) == (False, f"proper {detail} decomposition")


def test_naturality_builds_each_spectrum_once(bundle, monkeypatch):
    """The row's 4 algebras get one spectrum each, plus one inside each
    unit round trip: 8 calls for the 16 (M, N) pairs."""
    calls = 0
    real = du.spectrum

    def counting(A):
        nonlocal calls
        calls += 1
        return real(A)

    monkeypatch.setattr(du, "spectrum", counting)
    assert suites.check_naturality(bundle) == (True, "naturality verified on 54 morphisms")
    assert calls == 8


def test_lambda_equivalence_row_fails_on_a_dropped_hom(bundle, monkeypatch):
    """The row compares the lattice homs M → N with the d-lattice homs
    λ(M) → λ(N) of ``enumerate_dlattice_homs``.  With the last lattice hom
    dropped on the lattice side it reports False.  With the last hom
    dropped only between order-reversed lattices (source bottom not at
    index 0), which are the minus coordinates of λ, and patched
    everywhere, it reports False too."""
    genuine = lattice_module.enumerate_lattice_homs
    ok = (True, "36 hom-set pairs biject; 24 canonical isos")
    failed = (False, "hom sets of doubled lattices do not biject with lattice homs")
    assert suites.check_lambda_equivalence(bundle) == ok

    monkeypatch.setattr(du, "enumerate_lattice_homs", lambda L, M: genuine(L, M)[:-1])
    assert suites.check_lambda_equivalence(bundle) == failed

    def dropping_reversed(L, M):
        homs = genuine(L, M)
        return homs[:-1] if L.bot != 0 else homs

    for module in (lattice_module, dlattice_module, du):
        monkeypatch.setattr(module, "enumerate_lattice_homs", dropping_reversed)
    assert suites.check_lambda_equivalence(bundle) == failed


def test_stone_characterizations_row_fails_on_a_flipped_characterization(bundle, monkeypatch):
    """With total order-separation flipped on the indiscrete two-point
    space, the row names that space as the first where the lemma and the
    two characterizations split, and raises nothing."""
    real = bt.is_totally_order_separated
    indiscrete = (0b00, 0b11)

    def flipped(space):
        return real(space) != (space.tau_plus == space.tau_minus == indiscrete)

    ok = (True, "both Stone characterizations agree on 884 spaces")
    assert suites.check_stone_characterizations_exhaustive(bundle) == ok
    monkeypatch.setattr(bt, "is_totally_order_separated", flipped)
    assert suites.check_stone_characterizations_exhaustive(bundle) == (
        False,
        "space 16 (tau_plus [0, 3], tau_minus [0, 3]): Stone lemma False, "
        "T0/zero-dimensional False, totally order-separated True",
    )
