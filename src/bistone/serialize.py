"""JSON schemas for all structure kinds.

Every object carries "kind" and "version"; unknown versions are rejected.
Derived data (meet/join tables, specialization orders) is never serialized,
always recomputed on load.  Output is byte-deterministic: sorted keys,
fixed separators, index-ordered lists.
"""

import json

from .bitop import BiTopSpace
from .dlattice import DBooleanAlgebra, DLattice
from .errors import BistoneError, ParseError, UnknownKind
from .lattice import FinitePoset, bits, build_lattice, mask_of

SCHEMA_VERSION = 1
JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    type(None): "null",
}


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _order_json(order):
    """The elements and leq of a poset or lattice, the body of its schema
    and of each side of a d-lattice's."""
    return {"elements": list(order.labels), "leq": [[order.leq(i, j) for j in range(order.n)] for i in range(order.n)]}


def poset_to_json(poset):
    return {"kind": "poset", "version": SCHEMA_VERSION, **_order_json(poset)}


def lattice_to_json(lattice):
    return {"kind": "lattice", "version": SCHEMA_VERSION, **_order_json(lattice)}


def dlattice_to_json(dl):
    out = {
        "kind": "dboolean" if isinstance(dl, DBooleanAlgebra) else "dlattice",
        "version": SCHEMA_VERSION,
        "plus": _order_json(dl.plus),
        "minus": _order_json(dl.minus),
        "con": [list(dl.unpid(p)) for p in bits(dl.con_mask)],
        "tot": [list(dl.unpid(p)) for p in bits(dl.tot_mask)],
    }
    if isinstance(dl, DBooleanAlgebra):
        out["dagger"] = list(dl.dagger)
    return out


def bitop_to_json(space):
    return {
        "kind": "bitop",
        "version": SCHEMA_VERSION,
        "points": list(space.labels),
        "tau_plus": [sorted(bits(u)) for u in space.tau_plus],
        "tau_minus": [sorted(bits(v)) for v in space.tau_minus],
    }


def _require(obj, key, where=""):
    """obj[key]; ``where`` is the path of obj in the file (``"minus."``),
    with which every error names the field."""
    if key not in obj:
        raise ParseError(f"missing field {where + key!r}")
    return obj[key]


def _labels(obj, key, where=""):
    """The labels under key: a JSON array of distinct JSON strings.  The
    first label that is not a string is named by its position and JSON
    type, and the first that repeats an earlier one by its text."""
    labels = _require(obj, key, where)
    if not isinstance(labels, list):
        raise ParseError(f"{where}{key} must be a JSON array")
    seen = set()
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ParseError(f"{where}{key}[{i}] must be a JSON string, not {JSON_TYPES[type(label)]}")
        if label in seen:
            raise ParseError(f"{where}{key}[{i}] repeats the label {label!r}")
        seen.add(label)
    return labels


def _order(obj, where=""):
    """The elements of a poset or lattice and its leq, an n × n array of
    JSON booleans."""
    labels, leq = _labels(obj, "elements", where), _require(obj, "leq", where)
    n = len(labels)
    square = isinstance(leq, list) and len(leq) == n and all(isinstance(row, list) and len(row) == n for row in leq)
    if not (square and all(isinstance(x, bool) for row in leq for x in row)):
        raise ParseError(f"{where}leq must be a {n} x {n} array of booleans")
    return labels, leq


def poset_from_json(obj):
    return FinitePoset(*_order(obj))


def lattice_from_json(obj):
    return build_lattice(*_order(obj))


def _side(obj, key):
    """The coordinate lattice under key, a JSON object; an error inside it
    names its field under key (``minus.elements[2]``)."""
    side = _require(obj, key)
    if not isinstance(side, dict):
        raise ParseError(f"{key} must be a JSON object, not {JSON_TYPES[type(side)]}")
    return build_lattice(*_order(side, f"{key}."))


def _pair_mask(shell, obj, key):
    """The pair set under key: a JSON array of [plus index, minus index]
    arrays.  The first bad entry is named, by its position in JSON text
    when it is not such an array or an index is not an integer, and by its
    indices when one is out of range."""
    pairs = _require(obj, key)
    if not isinstance(pairs, list):
        raise ParseError(f"{key} must be a JSON array")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{key}[{i}] must be an array of two indices")
        for j, (x, side) in enumerate(zip(pair, ("plus", "minus"))):
            if type(x) is not int:  # not True or 1.0
                raise ParseError(f"{key}[{i}][{j}] must be a {side} index, not {json.dumps(x)}")
        a, b = pair
        if not (0 <= a < shell.plus.n and 0 <= b < shell.minus.n):
            raise ParseError(f"{key} pair ({a},{b}) is out of range")
    return mask_of(shell.pid(a, b) for a, b in pairs)


def dlattice_from_json(obj):
    plus, minus = _side(obj, "plus"), _side(obj, "minus")
    shell = DLattice(plus, minus, 0, 0)
    con = _pair_mask(shell, obj, "con")
    tot = _pair_mask(shell, obj, "tot")
    if obj.get("kind") == "dboolean":
        dagger = _require(obj, "dagger")
        if not isinstance(dagger, list) or len(dagger) != plus.n:
            raise ParseError(f"dagger must list {plus.n} indices below {minus.n}")
        for i, b in enumerate(dagger):
            if type(b) is not int:  # not True or 1.0
                raise ParseError(f"dagger[{i}] must be a minus index, not {json.dumps(b)}")
            if not 0 <= b < minus.n:
                raise ParseError(f"dagger[{i}] is {b}, not a minus index below {minus.n}")
        return DBooleanAlgebra(plus, minus, con, tot, tuple(dagger))
    return DLattice(plus, minus, con, tot)


def _open_masks(obj, key, n):
    """The open sets under key: a JSON array of arrays of point indices.
    The first entry that is not an array is named by its position, and so
    is the first index that is not an integer."""
    opens = _require(obj, key)
    if not isinstance(opens, list):
        raise ParseError(f"{key} must be a JSON array")
    for i, u in enumerate(opens):
        if not isinstance(u, list):
            raise ParseError(f"{key}[{i}] must be an array of point indices")
        for j, x in enumerate(u):
            if type(x) is not int:  # not True or 0.0
                raise ParseError(f"{key}[{i}][{j}] must be a point index, not {json.dumps(x)}")
    if not all(0 <= x < n for u in opens for x in u):
        raise ParseError(f"{key} names a point index not below {n}")
    return [mask_of(u) for u in opens]


def bitop_from_json(obj):
    labels = _labels(obj, "points")
    n = len(labels)
    return BiTopSpace(labels, _open_masks(obj, "tau_plus", n), _open_masks(obj, "tau_minus", n))


LOADERS = {
    "poset": poset_from_json,
    "lattice": lattice_from_json,
    "dlattice": dlattice_from_json,
    "dboolean": dlattice_from_json,
    "bitop": bitop_from_json,
}


def parse_structure(text):
    """Parse JSON text into (kind, structure); bad JSON, or JSON nested
    deeper than the decoder's recursion allows, raises ParseError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in LOADERS:
        raise UnknownKind(f"unsupported kind {kind!r}")
    version = obj.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True or 1.0
        raise UnknownKind(f"unsupported version {version!r}")
    try:
        return kind, LOADERS[kind](obj)
    except BistoneError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed {kind}: {exc}") from exc


def load_structure(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    return parse_structure(text)
