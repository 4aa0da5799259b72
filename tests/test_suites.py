"""The named invariant suites must pass wholesale on the default corpus,
and a row reports False when its check fails or raises."""

import json

import pytest
from test_census_kernels import merge_two_opens

from bistone import suites
from bistone.cli import main
from bistone.dlattice import DLattice, DLatticeHom
from bistone.errors import UnknownSuite
from bistone.lattice import low_bit
from bistone.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, bundle):
    rows = run_suite(name, bundle)
    failures = [r for r in rows if not r["ok"]]
    assert not failures, failures


def test_unknown_suite_rejected(bundle):
    with pytest.raises(UnknownSuite):
        run_suite("wibble", bundle)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_raising_row_reports_and_later_rows_run(monkeypatch, capsys, side):
    """With two opens of φ₊ or φ₋ merged, the spatiality guard raises; the
    CLI run still prints every row of the suite, the spatiality row as a
    failure naming the guard's exception, and exits 1."""
    merge_two_opens(monkeypatch, side)
    assert main(["props", "--suite", "duality"]) == 1
    out, err = capsys.readouterr()
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows] == [name for name, _ in SUITES["duality"]] and len(rows) == 10
    sign = "₊" if side == "plus" else "₋"
    guard = f"InvariantViolation: spatiality clause (i): φ{sign} is not injective on a d-lattice"
    assert rows[6] == {"check": "spatiality", "ok": False, "detail": guard}
    assert f"FAIL duality/spatiality: {guard}\n" in err
    assert rows[7]["check"] == "classical-squares" and rows[7]["ok"]


def test_eta_unit_row_fails_when_eta_does_not_reflect_con(bundle, monkeypatch):
    real = suites.eta_unit

    def eta_into_larger_con(dl):
        """The unit, into the ideal frame with its lowest inconsistent pair
        made consistent: still a hom, but it no longer reflects con."""
        df, eta = real(dl)
        grown = DLattice(df.plus, df.minus, df.con_mask | 1 << low_bit(~df.con_mask), df.tot_mask)
        return grown, DLatticeHom(dl, grown, eta.fplus, eta.fminus)

    assert suites.check_eta_unit(bundle) == (True, "principal-ideal unit is a hom and reflects con/tot")
    monkeypatch.setattr(suites, "eta_unit", eta_into_larger_con)
    assert suites.check_eta_unit(bundle) == (False, "eta does not reflect con/tot at (tt,ff)")
