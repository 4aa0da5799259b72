import os
import subprocess
import sys

import pytest

import bistone
from bistone.corpus import boolean_lattice, chain, three_chain, unlabeled_posets
from bistone.dlattice import bool_dlattice, lambda_of_dislat, omega_of_lattice
from bistone.lattice import FinitePoset, birkhoff
from bistone.suites import default_bundle


@pytest.fixture(scope="session")
def B():
    return bool_dlattice()


@pytest.fixture(scope="session")
def chain2():
    return chain(2)


@pytest.fixture(scope="session")
def chain3():
    return three_chain()


@pytest.fixture(scope="session")
def b2():
    return boolean_lattice(2)


@pytest.fixture(scope="session")
def omega3(chain3):
    return omega_of_lattice(chain3)


@pytest.fixture(scope="session")
def lam3(chain3):
    return lambda_of_dislat(chain3)


@pytest.fixture(scope="session")
def poset2():
    return FinitePoset(["p", "q"], [[True, True], [False, True]])


@pytest.fixture(scope="session")
def antichain2():
    return FinitePoset(["p", "q"], [[True, False], [False, True]])


@pytest.fixture(scope="session")
def posets4():
    return unlabeled_posets(4)


@pytest.fixture(scope="session")
def lattices4(posets4):
    return [birkhoff(p) for p in posets4]


@pytest.fixture(scope="session")
def bundle():
    return default_bundle()


@pytest.fixture(scope="session")
def run_python():
    """Run a fresh interpreter (extra flags allowed) with this bistone importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bistone.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    return run
