"""Command-line surface.

Single binary, subcommand style.  Machine-readable JSON goes to stdout,
the human summary to stderr.  Exit codes: 0 pass, 1 validation/property
failure, 2 usage or parse error.  Identical (input, config) always
produces byte-identical output.
"""

import argparse
import os
import sys

from . import bitop as bt
from . import duality as du
from .corpus import poset_counts, unlabeled_posets
from .dlattice import lambda_of_dislat, validate_dboolean, validate_dlattice
from .errors import BistoneError, BoundsTooLarge, ParseError, UnknownKind, UnknownSuite
from .lattice import birkhoff
from .report import StructReport
from .serialize import (
    bitop_to_json,
    dlattice_to_json,
    dumps,
    lattice_to_json,
    load_structure,
    poset_to_json,
)
from .suites import bundle_from_structures, default_bundle, run_suite

OK, FAIL, USAGE = 0, 1, 2


def _emit(obj, out_path=None):
    text = dumps(obj)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(msg):
    print(msg, file=sys.stderr)


def _reject(report, out_path):
    """FAIL report for an input that parsed but does not validate."""
    _emit(report.to_json(), out_path)
    _say(f"FAIL {report.axiom}: input does not validate")
    return FAIL


def cmd_validate(args):
    kind, obj = load_structure(args.infile)
    if kind == "dboolean":
        report = validate_dboolean(obj)
    elif kind == "dlattice":
        report = validate_dlattice(obj)
    else:
        # posets, lattices and spaces validate inside their constructors
        report = StructReport.passed(f"valid {kind}")
    _emit(report.to_json(), args.out)
    _say(("PASS" if report.ok else f"FAIL {report.axiom}") + f": {report.message}")
    return OK if report.ok else FAIL


def cmd_spec(args):
    kind, obj = load_structure(args.infile)
    if kind not in ("dlattice", "dboolean"):
        raise UnknownKind(f"spec expects a d-lattice input, got {kind!r}")
    report = validate_dboolean(obj) if kind == "dboolean" else validate_dlattice(obj)
    if not report.ok:
        return _reject(report, args.out)
    space = du.dspec(obj)
    _emit(bitop_to_json(space), args.out)
    _say(f"spectrum has {space.n} points")
    return OK


def cmd_clop(args):
    kind, obj = load_structure(args.infile)
    if kind != "bitop":
        raise UnknownKind(f"clop expects a bitop input, got {kind!r}")
    algebra = bt.dclop_algebra(obj)
    _emit(dlattice_to_json(algebra), args.out)
    _say(f"d-clopen algebra sides: {algebra.plus.n} and {algebra.minus.n}")
    return OK


def cmd_roundtrip(args):
    kind, obj = load_structure(args.infile)
    if kind == "dboolean":
        report = validate_dboolean(obj)
        if not report.ok:
            return _reject(report, args.out)
        witness = du.unit_roundtrip(obj)
    elif kind == "bitop":
        witness = du.counit_roundtrip(obj)  # NotStone propagates as exit 1
    else:
        raise UnknownKind(f"roundtrip expects dboolean or bitop, got {kind!r}")
    _emit(witness.to_json(), args.out)
    _say(witness.verdict)
    return OK if witness.is_iso else FAIL


# gen --kind: the file-name prefix and the structure built from each poset
GEN_KINDS = {
    "posets": ("poset", poset_to_json),
    "lattices": ("lattice", lambda p: lattice_to_json(birkhoff(p))),
    "dbool": ("dbool", lambda p: dlattice_to_json(lambda_of_dislat(birkhoff(p)))),
    "stone-spaces": ("space", lambda p: bitop_to_json(bt.stone_space_from_poset(p))),
}


def cmd_gen(args):
    if args.bounds > 5:
        raise BoundsTooLarge(f"gen {args.kind} capped at bound 5")
    os.makedirs(args.out, exist_ok=True)
    prefix, build = GEN_KINDS[args.kind]
    files = []

    def write(name, payload):
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload))
        files.append(name)

    for k, p in enumerate(unlabeled_posets(args.bounds)):
        write(f"{prefix}_{k:03d}.json", build(p))
    manifest = {
        "kind": "manifest",
        "version": 2,
        "command": "gen",
        "corpus": args.kind,
        "bounds": args.bounds,
        "counts_by_size": poset_counts(args.bounds),
        "total": len(files),
        "files": files,
    }
    write("manifest.json", manifest)
    _say(f"wrote {len(files)} files to {args.out}")
    return OK


def cmd_props(args):
    if args.corpus:
        structures = []
        for name in sorted(os.listdir(args.corpus)):
            if not name.endswith(".json") or name == "manifest.json":
                continue
            kind, obj = load_structure(os.path.join(args.corpus, name))
            structures.append((name, kind, obj))
        bundle = bundle_from_structures(structures)
    else:
        bundle = default_bundle()
    rows = run_suite(args.suite, bundle)
    table = {"kind": "props-table", "version": 1, "suite": args.suite, "rows": rows}
    _emit(table, args.out)
    failures = [r for r in rows if not r["ok"]]
    for r in rows:
        _say(f"{'PASS' if r['ok'] else 'FAIL'} {args.suite}/{r['check']}: {r['detail']}")
    return OK if not failures else FAIL


def cmd_search(args):
    report = du.conjecture_search(args.conjecture, args.bounds)
    _emit(report.to_json(), args.out)
    _say(f"{report.conjecture}: {report.outcome} after {report.examined} structures")
    return OK


def positive_int(text):
    """argparse type: a positive int; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bistone",
        description="finite d-Boolean algebras, d-frames and bitopological Stone duality",
    )
    parser.add_argument("--max-elements", type=positive_int, default=None, help="override the global size guard")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", default=None)

    common(sub.add_parser("validate", help="validate a structure file"))
    common(sub.add_parser("spec", help="spectrum of a d-lattice"))
    common(sub.add_parser("clop", help="d-clopen algebra of a space"))
    common(sub.add_parser("roundtrip", help="unit/counit round trip"))

    gen = sub.add_parser("gen", help="generate a corpus")
    gen.add_argument("--kind", required=True, choices=list(GEN_KINDS))
    gen.add_argument("--bounds", required=True, type=positive_int)
    gen.add_argument("--out", required=True)

    props = sub.add_parser("props", help="run an invariant suite")
    props.add_argument("--suite", required=True)
    props.add_argument("--corpus", default=None, help="directory of structure files")
    props.add_argument("--out", default=None)

    search = sub.add_parser("search", help="finite counterexample search")
    search.add_argument("--conjecture", required=True, choices=["Q1", "Q2"])
    search.add_argument("--bounds", required=True, type=positive_int)
    search.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "validate": cmd_validate,
    "spec": cmd_spec,
    "clop": cmd_clop,
    "roundtrip": cmd_roundtrip,
    "gen": cmd_gen,
    "props": cmd_props,
    "search": cmd_search,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    previous = os.environ.get("BISTONE_MAX_ELEMENTS")
    if args.max_elements is not None:
        os.environ["BISTONE_MAX_ELEMENTS"] = str(args.max_elements)
    try:
        return COMMANDS[args.command](args)
    except (ParseError, UnknownKind, UnknownSuite, BoundsTooLarge, OSError) as exc:
        _say(f"error: {exc}")
        return USAGE
    except BistoneError as exc:
        _say(f"error: {exc}")
        return FAIL
    finally:
        # the override holds for this one command only
        if previous is None:
            os.environ.pop("BISTONE_MAX_ELEMENTS", None)
        else:
            os.environ["BISTONE_MAX_ELEMENTS"] = previous


if __name__ == "__main__":
    sys.exit(main())
