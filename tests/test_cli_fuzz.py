"""Mutation fuzz of the CLI over corpus JSON: ``validate``, ``spec``,
``roundtrip`` and ``clop`` on a mutated structure file end in exit code 0,
1 or 2, never in an uncaught exception or a traceback on stderr."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bistone import bitop as bt
from bistone.cli import main
from bistone.corpus import unlabeled_posets
from bistone.dlattice import lambda_of_dislat, omega_of_lattice
from bistone.lattice import birkhoff
from bistone.serialize import bitop_to_json, dlattice_to_json, lattice_to_json, poset_to_json

COMMANDS = ["validate", "spec", "roundtrip", "clop"]
KEYS = [
    "kind", "version", "elements", "leq", "plus", "minus", "con", "tot", "dagger",
    "points", "tau_plus", "tau_minus",
]


def _seed_documents():
    docs = []
    for p in unlabeled_posets(3):
        L = birkhoff(p)
        docs.append(poset_to_json(p))
        docs.append(lattice_to_json(L))
        docs.append(dlattice_to_json(lambda_of_dislat(L)))
        docs.append(dlattice_to_json(omega_of_lattice(L)))
        docs.append(bitop_to_json(bt.stone_space_from_poset(p)))
    return docs


SEEDS = _seed_documents()

ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(-2, 9, allow_nan=False),
    st.sampled_from(["", "x", "tt", "dboolean", "dlattice", "bitop", "poset", "lattice"]),
)
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated_documents(draw):
    """A corpus document with one to three edits: a value replaced, a dict
    key or list entry deleted, or an entry added."""
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            if op == "replace":
                doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if op == "replace":
            parent[path[-1]] = draw(VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(target, list):
            target.append(draw(VALUES))
        elif isinstance(target, dict):
            target[draw(st.sampled_from(KEYS))] = draw(VALUES)
    return doc


OUT_OF_RANGE_OPEN = {
    "kind": "bitop",
    "version": 1,
    "points": ["a", "b"],
    "tau_plus": [[], [0, 1], [0, 2], [0], [0, 1, 2]],
    "tau_minus": [[], [0, 1]],
}


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS))
@example(doc={"kind": [], "version": 1}, command="validate")
@example(doc=OUT_OF_RANGE_OPEN, command="validate")
@example(doc=OUT_OF_RANGE_OPEN, command="clop")
def test_cli_on_mutated_corpus_json_exits_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--in", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_out_of_range_open_is_a_parse_error():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(OUT_OF_RANGE_OPEN, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert [main([c, "--in", path]) for c in ("validate", "clop")] == [2, 2]
