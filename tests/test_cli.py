"""JSON schemas and the command-line surface: exit codes, determinism,
corpus generation, suite runner and search."""

import json
import os

import pytest

from bistone import bitop as bt
from bistone.cli import main
from bistone.dlattice import DLattice, dlattice_equal
from bistone.errors import DegeneratePair, ParseError, UnknownKind
from bistone.serialize import (
    bitop_from_json,
    bitop_to_json,
    dlattice_from_json,
    dlattice_to_json,
    dumps,
    lattice_from_json,
    lattice_to_json,
    parse_structure,
    poset_from_json,
    poset_to_json,
)


@pytest.fixture()
def bool_file(tmp_path, B):
    path = tmp_path / "bool.json"
    path.write_text(dumps(dlattice_to_json(B)))
    return str(path)


@pytest.fixture()
def mutant_file(tmp_path, B):
    mutant = DLattice(B.plus, B.minus, B.con_mask, B.tot_mask & ~(1 << B.ff))
    obj = dlattice_to_json(mutant)
    obj["kind"] = "dlattice"
    path = tmp_path / "mutant.json"
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture()
def x2_file(tmp_path, poset2):
    path = tmp_path / "x2.json"
    path.write_text(dumps(bitop_to_json(bt.stone_space_from_poset(poset2))))
    return str(path)


def test_json_roundtrip_poset(poset2):
    again = poset_from_json(poset_to_json(poset2))
    assert again.labels == poset2.labels and again.up == poset2.up


def test_json_roundtrip_lattice(chain3):
    again = lattice_from_json(lattice_to_json(chain3))
    assert again.labels == chain3.labels and again.meet == chain3.meet


def test_json_roundtrip_dlattice(omega3, lam3, B):
    for dl in (omega3, lam3, B):
        again = dlattice_from_json(json.loads(dumps(dlattice_to_json(dl))))
        assert dlattice_equal(again, dl)


def test_json_roundtrip_bitop(poset2):
    s = bt.stone_space_from_poset(poset2)
    again = bitop_from_json(bitop_to_json(s))
    assert again.tau_plus == s.tau_plus and again.tau_minus == s.tau_minus


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_structure("not json at all {")
    with pytest.raises(UnknownKind):
        parse_structure('{"kind":"wibble","version":1}')
    with pytest.raises(UnknownKind):
        parse_structure('{"kind":"lattice","version":99,"elements":[],"leq":[]}')


def test_cli_validate_pass(bool_file, capsys):
    assert main(["validate", "--in", bool_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_cli_validate_mutant_names_axiom(mutant_file, capsys):
    assert main(["validate", "--in", mutant_file]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["axiom"] == "tot-tt-ff"


def test_cli_validate_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert main(["validate", "--in", str(bad)]) == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"kind": "lattice", "elements": ["a", "b"], "leq": [[True, True, False], [False, True, 7]]},
            "leq must be a 2 x 2 array of booleans",
        ),
        (
            {"kind": "lattice", "elements": ["a", "b"], "leq": [[True, True], [False, True], [False, False]]},
            "leq must be a 2 x 2 array of booleans",
        ),
        ({"kind": "lattice", "elements": "ab", "leq": [[True, True], [False, True]]}, "elements must be a JSON array"),
        ({"kind": "poset", "elements": ["x"], "leq": [["x"]]}, "leq must be a 1 x 1 array of booleans"),
        ({"kind": "bitop", "points": "ab", "tau_plus": [[], [0, 1]], "tau_minus": [[], [0, 1]]}, "points must be a JSON array"),
    ],
    ids=["leq-entries", "leq-rows", "elements-string", "poset-leq-string", "points-string"],
)
def test_cli_malformed_order_exits_2(tmp_path, capsys, doc, message):
    """elements and points must be JSON arrays and leq an n × n array of
    JSON booleans; before, each of these validated as PASS."""
    path = tmp_path / "bad.json"
    path.write_text(dumps({**doc, "version": 1}))
    assert main(["validate", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def with_fields(name, *path_and_values):
    """A golden input with the value at each (key, …) path replaced."""
    with open(os.path.join(GOLDEN_INPUTS, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for *keys, value in path_and_values:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "validate",
            {"kind": "lattice", "version": 1, "elements": [{"a": 1}, [1]], "leq": [[True, True], [False, True]]},
            "elements[0] must be a JSON string, not an object",
        ),
        ("validate", with_fields("space_not_stone.json", ("points", ["a", "a"])), "points[1] repeats the label 'a'"),
        (
            "spec",
            with_fields("dlattice.json", ("minus", "elements", ["0", "c1", "0"])),
            "minus.elements[2] repeats the label '0'",
        ),
        (
            "spec",
            with_fields("dlattice.json", ("plus", "elements", ["0", 1, "1"])),
            "plus.elements[1] must be a JSON string, not a number",
        ),
        ("clop", with_fields("space_stone.json", ("points", ["a", "a", "c"])), "points[1] repeats the label 'a'"),
        ("clop", with_fields("space_stone.json", ("points", ["a", "b", None])), "points[2] must be a JSON string, not null"),
        (
            "roundtrip",
            with_fields("dboolean.json", ("plus", "elements", ["{}", "{a}", "{a,b}", "{a,c}", ["{a,b,c}"]])),
            "plus.elements[4] must be a JSON string, not an array",
        ),
        ("roundtrip", with_fields("space_stone.json", ("points", ["a", "b", "b"])), "points[2] repeats the label 'b'"),
    ],
    ids=[
        "validate-object-label",
        "validate-repeated-point",
        "spec-repeated-element",
        "spec-number-label",
        "clop-repeated-point",
        "clop-null-point",
        "roundtrip-array-label",
        "roundtrip-repeated-point",
    ],
)
def test_cli_labels_must_be_distinct_strings(tmp_path, capsys, command, doc, message):
    """Element and point labels are distinct JSON strings; before, a label
    of another JSON type was read through ``str`` and a repeated label was
    kept, so each of these inputs went through with exit 0 or 1."""
    path = tmp_path / "labels.json"
    path.write_text(dumps(doc))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "validate",
            with_fields("dboolean.json", ("minus", "elements", ["{}", "{a}", "{a,b}", "{a}", "{a,b,c}"])),
            "minus.elements[3] repeats the label '{a}'",
        ),
        ("spec", with_fields("dlattice.json", ("plus", [1])), "plus must be a JSON object, not an array"),
        ("spec", with_fields("dlattice.json", ("minus", "leq", None)), "minus.leq must be a 3 x 3 array of booleans"),
        ("spec", with_fields("dlattice.json", ("con", [1])), "con[0] must be an array of two indices"),
        ("spec", with_fields("dlattice.json", ("tot", "ab")), "tot must be a JSON array"),
        ("roundtrip", with_fields("dboolean.json", ("tot", [[0, 0], [1, 0, 1]])), "tot[1] must be an array of two indices"),
        ("roundtrip", with_fields("dboolean.json", ("dagger", 5)), "dagger must list 5 indices below 5"),
        ("spec", with_fields("dlattice.json", ("con", 4, [True, 0])), "con[4][0] must be a plus index, not true"),
        ("validate", with_fields("dlattice.json", ("tot", 1, [1, 1.0])), "tot[1][1] must be a minus index, not 1.0"),
        ("roundtrip", with_fields("dboolean.json", ("dagger", 1, True)), "dagger[1] must be a minus index, not true"),
        ("validate", with_fields("dboolean.json", ("dagger", 2, 1.0)), "dagger[2] must be a minus index, not 1.0"),
        ("spec", with_fields("dboolean.json", ("dagger", 0, 99)), "dagger[0] is 99, not a minus index below 5"),
    ],
    ids=[
        "validate-repeated-minus-label",
        "spec-plus-list",
        "spec-minus-leq",
        "spec-con-int",
        "spec-tot-string",
        "roundtrip-tot-triple",
        "roundtrip-dagger-int",
        "spec-con-bool-index",
        "validate-tot-float-index",
        "roundtrip-dagger-bool-index",
        "validate-dagger-float-index",
        "spec-dagger-index-out-of-range",
    ],
)
def test_cli_dlattice_errors_name_their_field(tmp_path, capsys, command, doc, message):
    """An error inside a d-lattice file's plus or minus lattice names its
    side, and a con or tot entry that is not an array of two indices is
    named by its position, as is an index in one that is not a JSON
    integer; before, these read ``elements[3] …``, ``missing field
    'elements'`` and ``leq must be …`` with no side, or ``malformed
    dlattice:`` or ``malformed dboolean:`` with a Python error such as
    ``'int' object is not iterable``, and a boolean or float index was
    printed as a Python value (``con pair (True,0) is out of range``).  A
    dagger entry is named by its position too; before, a boolean, float or
    out-of-range entry read ``dagger must list 5 indices below 5``."""
    path = tmp_path / "dlattice.json"
    path.write_text(dumps(doc))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        (with_fields("space_stone.json", ("tau_plus", [1])), "tau_plus[0] must be an array of point indices"),
        (with_fields("space_stone.json", ("tau_minus", 5)), "tau_minus must be a JSON array"),
        (with_fields("space_stone.json", ("tau_plus", "ab")), "tau_plus must be a JSON array"),
        (with_fields("space_stone.json", ("tau_plus", 1, [0.0])), "tau_plus[1][0] must be a point index, not 0.0"),
        (with_fields("space_stone.json", ("tau_minus", 2, [0, True])), "tau_minus[2][1] must be a point index, not true"),
    ],
    ids=["plus-int-entry", "minus-int", "plus-string", "float-index", "bool-index"],
)
def test_cli_bitop_errors_name_their_field(tmp_path, capsys, doc, message):
    """A bitop file's open-set lists and their entries must be JSON arrays,
    and an index that is not a JSON integer is named by its position;
    before, these read ``malformed bitop: 'int' object is not iterable``, or
    took a string for a list of characters, or a float or boolean index for
    one out of range."""
    path = tmp_path / "space.json"
    path.write_text(dumps(doc))
    assert main(["clop", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_bitop_index_out_of_range_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(dumps(with_fields("space_stone.json", ("tau_minus", 1, [3]))))
    assert main(["clop", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: tau_minus names a point index not below 3\n")


@pytest.mark.parametrize("command", ["validate", "clop"])
@pytest.mark.parametrize(
    "doc, message",
    [
        (
            with_fields("space_stone.json", ("tau_plus", [[1], [2], [1, 2], [0, 1, 2]])),
            "tau_plus must contain the empty set and the whole space",
        ),
        (
            with_fields("space_stone.json", ("tau_minus", [[], [0], [0, 1], [0, 2]])),
            "tau_minus must contain the empty set and the whole space",
        ),
        (with_fields("space_stone.json", ("tau_plus", [[], [1], [2], [0, 1, 2]])), "tau_plus not closed under union"),
        (
            with_fields("space_stone.json", ("tau_minus", [[], [0, 1], [0, 2], [0, 1, 2]])),
            "tau_minus not closed under intersection",
        ),
    ],
    ids=["no-empty-set", "no-whole-space", "union", "intersection"],
)
def test_cli_bitop_that_is_not_a_topology_fails_validation(tmp_path, capsys, command, doc, message):
    """A bitop file that parses but whose open sets are not a topology fails
    its check with exit 1, as a poset whose leq is not antisymmetric does;
    before, these exited 2 with a ``malformed bitop:`` prefix."""
    path = tmp_path / "space.json"
    path.write_text(dumps(doc))
    assert main([command, "--in", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_cli_version_must_be_the_integer_one(tmp_path, capsys, version):
    """``True == 1.0 == 1`` in Python, yet only the JSON integer 1 is schema
    version 1; before, both of these validated a poset as PASS."""
    path = tmp_path / "version.json"
    path.write_text(json.dumps({"kind": "poset", "version": version, "elements": ["x"], "leq": [[True]]}))
    assert main(["validate", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: unsupported version {version!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--in", "{file}"],
        ["spec", "--in", "{file}"],
        ["clop", "--in", "{file}"],
        ["roundtrip", "--in", "{file}"],
        ["props", "--suite", "lattice_core", "--corpus", "{dir}"],
    ],
    ids=["validate", "spec", "clop", "roundtrip", "props-corpus"],
)
def test_cli_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    """JSON nested deeper than the decoder's recursion limit is a parse
    error with a one-line message; before, each command ended in a
    RecursionError traceback."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([arg.format(file=path, dir=corpus) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: JSON nested too deeply\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--in", "{dir}"],
        ["validate", "--in", "{latin1}"],
        ["props", "--suite", "lattice_core", "--out", "{dir}"],
        ["props", "--suite", "lattice_core", "--corpus", "{file}"],
        ["gen", "--kind", "posets", "--bounds", "2", "--out", "{file}"],
    ],
    ids=["validate-in-dir", "validate-in-non-utf8", "props-out-dir", "props-corpus-file", "gen-out-file"],
)
def test_cli_bad_path_exits_2(tmp_path, bool_file, capsys, argv):
    """A path of the wrong type, or a file that is not UTF-8, is a usage
    error with a one-line message, not a traceback."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "poset", "elements": ["\xe9"]}')
    paths = {"dir": str(tmp_path), "file": bool_file, "latin1": str(latin1)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_spec_on_bool(bool_file, capsys):
    assert main(["spec", "--in", bool_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "bitop" and len(out["points"]) == 1


def test_cli_spec_rejects_invalid(mutant_file, capsys):
    assert main(["spec", "--in", mutant_file]) == 1


def test_cli_clop_on_x2(x2_file, capsys):
    assert main(["clop", "--in", x2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "dboolean" and len(out["plus"]["elements"]) == 3


def test_cli_roundtrip_dbool(tmp_path, lam3, capsys):
    path = tmp_path / "lam3.json"
    path.write_text(dumps(dlattice_to_json(lam3)))
    assert main(["roundtrip", "--in", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "ISO"


def test_cli_roundtrip_space(x2_file, capsys):
    assert main(["roundtrip", "--in", x2_file]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ISO"


def test_cli_roundtrip_not_stone(tmp_path, capsys):
    s = bt.BiTopSpace(["p", "q"], [0b00, 0b11], [0b00, 0b11])
    path = tmp_path / "ind.json"
    path.write_text(dumps(bitop_to_json(s)))
    assert main(["roundtrip", "--in", str(path)]) == 1


def test_cli_empty_space_is_a_degenerate_pair(tmp_path, run_python):
    """The empty space is Stone, but each side of dO and dClop has one set,
    so {tt, ff} = {1, 0}: a rejected input, not an internal bug."""
    empty = bt.BiTopSpace([], [0], [0])
    assert bt.is_stone(empty)
    for build in (bt.dO, bt.dclop_algebra):
        with pytest.raises(DegeneratePair):
            build(empty)
    path = tmp_path / "empty.json"
    path.write_text(dumps(bitop_to_json(empty)))
    for command in ("clop", "roundtrip"):
        result = run_python("-m", "bistone.cli", command, "--in", str(path))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: the empty space gives a degenerate pair\n"


@pytest.fixture()
def lam2_json():
    from bistone.corpus import chain
    from bistone.dlattice import lambda_of_dislat

    return dlattice_to_json(lambda_of_dislat(chain(2)))


def test_cli_roundtrip_out_of_range_pair_exits_2(tmp_path, lam2_json, run_python):
    lam2_json["con"].append([9, 0])
    path = tmp_path / "bad_pair.json"
    path.write_text(dumps(lam2_json))
    for command in ("validate", "spec", "roundtrip"):
        result = run_python("-m", "bistone.cli", command, "--in", str(path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr and "out of range" in result.stderr


def test_cli_roundtrip_invalid_dagger_fails_report(tmp_path, lam2_json, run_python):
    lam2_json["dagger"] = [0, 0]
    path = tmp_path / "bad_dagger.json"
    path.write_text(dumps(lam2_json))
    result = run_python("-m", "bistone.cli", "roundtrip", "--in", str(path))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    report = json.loads(result.stdout)
    assert report["ok"] is False and report["axiom"] == "dagger-bijection"


def test_cli_gen_posets_counts(tmp_path, capsys):
    out = str(tmp_path / "corpus")
    assert main(["gen", "--kind", "posets", "--bounds", "3", "--out", out]) == 0
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["counts_by_size"] == {"1": 1, "2": 2, "3": 5}
    assert manifest["total"] == 8
    assert manifest["version"] == 2 and "seed" not in manifest
    names = [n for n in os.listdir(out) if n.startswith("poset_")]
    assert len(names) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--in", "x.json"],
        ["spec", "--in", "x.json"],
        ["clop", "--in", "x.json"],
        ["roundtrip", "--in", "x.json"],
        ["gen", "--kind", "posets", "--bounds", "2", "--out", "x"],
        ["props", "--suite", "bitop"],
        ["search", "--conjecture", "Q1", "--bounds", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_has_no_seed_option(argv, tmp_path, monkeypatch, capsys):
    """Every output is deterministic without a seed, so no subcommand takes one."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--seed", "0"]) == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_cli_gen_stone_spaces(tmp_path, capsys):
    out = str(tmp_path / "spaces")
    assert main(["gen", "--kind", "stone-spaces", "--bounds", "2", "--out", out]) == 0
    names = [n for n in os.listdir(out) if n.startswith("space_")]
    assert len(names) == 3  # point, chain, antichain


def test_cli_gen_bounds_guard(tmp_path):
    assert main(["gen", "--kind", "posets", "--bounds", "7", "--out", str(tmp_path / "x")]) == 2


def test_cli_gen_non_integer_bounds_is_a_usage_error(tmp_path, capsys):
    assert main(["gen", "--kind", "posets", "--bounds", "abc", "--out", str(tmp_path / "x")]) == 2
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_gen_non_positive_bounds_is_a_usage_error(value, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen", "--kind", "posets", "--bounds", value, "--out", str(out)]) == 2
    assert f"argument --bounds: must be a positive integer, got {int(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_search_non_positive_bounds_is_a_usage_error(value, capsys):
    assert main(["search", "--conjecture", "Q1", "--bounds", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --bounds: must be a positive integer, got {int(value)}" in captured.err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_non_positive_max_elements_is_a_usage_error(value, monkeypatch, bool_file, capsys):
    monkeypatch.delenv("BISTONE_MAX_ELEMENTS", raising=False)
    assert main(["--max-elements", value, "validate", "--in", bool_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --max-elements: must be a positive integer, got {int(value)}" in captured.err
    assert "BISTONE_MAX_ELEMENTS" not in os.environ


def test_bitop_open_with_a_repeated_index_names_the_point_once():
    obj = {"kind": "bitop", "version": 1, "points": ["a", "b"], "tau_plus": [[], [0, 0], [0, 1]], "tau_minus": [[], [0, 1]]}
    assert bitop_from_json(obj).tau_plus == (0, 0b01, 0b11)


def test_cli_gen_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen", "--kind", "dbool", "--bounds", "3", "--out", out1]) == 0
    assert main(["gen", "--kind", "dbool", "--bounds", "3", "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_cli_spec_deterministic(bool_file, capsys):
    assert main(["spec", "--in", bool_file]) == 0
    first = capsys.readouterr().out
    assert main(["spec", "--in", bool_file]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_emitted_structures_revalidate(tmp_path, capsys, poset2):
    # writer/validator self-consistency: spec and clop outputs validate
    x2 = bt.stone_space_from_poset(poset2)
    spath = tmp_path / "x2.json"
    spath.write_text(dumps(bitop_to_json(x2)))
    assert main(["clop", "--in", str(spath), "--out", str(tmp_path / "clop.json")]) == 0
    capsys.readouterr()
    assert main(["validate", "--in", str(tmp_path / "clop.json")]) == 0
    capsys.readouterr()
    assert main(["spec", "--in", str(tmp_path / "clop.json"), "--out", str(tmp_path / "spec.json")]) == 0
    capsys.readouterr()
    assert main(["validate", "--in", str(tmp_path / "spec.json")]) == 0


def test_cli_props_mutant_corpus(tmp_path, mutant_file, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    with open(mutant_file) as fh:
        (corpus / "mutant.json").write_text(fh.read())
    assert main(["props", "--suite", "dlattice", "--corpus", str(corpus)]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [r for r in out["rows"] if not r["ok"]]
    assert failing and "tot-tt-ff" in failing[0]["detail"]


def test_cli_props_unknown_suite(capsys):
    assert main(["props", "--suite", "nonsense"]) == 2


def test_cli_search_q1(capsys):
    assert main(["search", "--conjecture", "Q1", "--bounds", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "search-report"
    assert out["outcome"] in ("EXHAUSTED_NO_COUNTEREXAMPLE", "COUNTEREXAMPLE")


def test_cli_usage_error():
    assert main(["spec"]) == 2


def test_env_var_overrides_size_guard(monkeypatch):
    from bistone.config import max_elements
    from bistone.errors import BoundsTooLarge
    from bistone.lattice import FinitePoset

    monkeypatch.setenv("BISTONE_MAX_ELEMENTS", "3")
    assert max_elements() == 3
    with pytest.raises(BoundsTooLarge):
        FinitePoset(["a", "b", "c", "d"], [[i <= j for j in range(4)] for i in range(4)])
    monkeypatch.setenv("BISTONE_MAX_ELEMENTS", "not-a-number")
    with pytest.raises(BoundsTooLarge, match="BISTONE_MAX_ELEMENTS must be a positive integer, got 'not-a-number'"):
        max_elements()


@pytest.mark.parametrize("value", ["0", "-1", "not-a-number"])
def test_cli_bad_max_elements_env_var_is_a_usage_error(value, monkeypatch, bool_file, capsys):
    monkeypatch.setenv("BISTONE_MAX_ELEMENTS", value)
    assert main(["validate", "--in", bool_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: BISTONE_MAX_ELEMENTS must be a positive integer, got {value!r}" in captured.err
    assert os.environ["BISTONE_MAX_ELEMENTS"] == value


def test_max_elements_override_is_scoped_to_one_command(monkeypatch, bool_file, capsys):
    from bistone.config import max_elements

    monkeypatch.delenv("BISTONE_MAX_ELEMENTS", raising=False)
    before = dict(os.environ)
    assert main(["--max-elements", "3", "validate", "--in", bool_file]) == 0
    assert dict(os.environ) == before
    assert max_elements() == 64
