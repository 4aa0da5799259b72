"""The named invariant suites must pass wholesale on the default corpus."""

import pytest

from bistone.errors import UnknownSuite
from bistone.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, bundle):
    rows = run_suite(name, bundle)
    failures = [r for r in rows if not r["ok"]]
    assert not failures, failures


def test_unknown_suite_rejected(bundle):
    with pytest.raises(UnknownSuite):
        run_suite("wibble", bundle)
