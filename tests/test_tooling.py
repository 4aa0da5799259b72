"""Repository checks read from source with ``ast``, so nothing under
``bench/`` is imported: every library name the benchmark harness traces or
calls still resolves below ``bistone`` and takes the arguments the harness
passes, the ``props`` workload counts every suite row, the library has no
``assert`` statement (its guards raise, so they survive ``python -O``), no
library module imports numpy, only the named functions scan all n!
relabelings or all 2^n subsets, only the named functions hold an
``lru_cache``, ``DLattice.__init__`` sets only its four fields, every
library definition and method is reached from the library or the
harness, every field of a library class is read by the library, and
every library function is entered by the command-line traffic of the
golden commands and a few more."""

import ast
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path

from test_cli_golden import COMMANDS, INPUTS

import bistone
from bistone import suites
from bistone.cli import GEN_KINDS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LIBRARY = Path(bistone.__file__).resolve().parent


def resolve(path):
    """The object at a dotted path below ``bistone``, or an AttributeError."""
    head, *attrs = path.split(".")
    obj = importlib.import_module(f"bistone.{head}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def module_constants(path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return found


def test_bench_layers_resolve_below_bistone():
    consts = module_constants(BENCH / "run.py", {"LAYERS", "LAYER_PATHS"})
    layers, paths = consts["LAYERS"], consts["LAYER_PATHS"]
    assert layers and set(paths) <= set(layers)
    for name in layers:
        assert callable(resolve(paths.get(name, name))), name


def workload_attributes():
    """The tree of ``bench/workloads.py`` and a function naming the library
    path of an ``alias.attr`` node there (``du.spectrum`` is
    ``duality.spectrum``), or None for any other node."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bistone":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    assert aliases

    def library_path(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            return f"{aliases[node.value.id]}.{node.attr}"
        return None

    return tree, library_path


def test_bench_workload_attributes_resolve_below_bistone():
    tree, library_path = workload_attributes()
    used = {library_path(node) for node in ast.walk(tree)} - {None}
    assert "duality.dspec_equals_dpt_idl" in used
    for path in sorted(used):
        resolve(path)


def test_bench_workload_calls_bind_to_library_signatures():
    """Every call the workloads make on a library attribute binds to its
    signature, with as many positional arguments and the same keywords."""
    tree, library_path = workload_attributes()
    calls = set()
    for node in ast.walk(tree):
        path = isinstance(node, ast.Call) and library_path(node.func)
        if path:
            keywords = {k.arg: None for k in node.keywords}
            inspect.signature(resolve(path)).bind(*node.args, **keywords)
            calls.add(path)
    assert {"duality.spatiality_check", "dlattice.DLattice", "cli.main"} <= calls


def test_props_workload_counts_every_suite_row():
    """``Props.items_per_pass`` and the ``rows`` its gate wants are the rows
    of ``suites.SUITES``, so a row added or deleted without a change to the
    benchmark fails here."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    (props,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Props"]
    (items,) = [
        ast.literal_eval(node.value)
        for node in props.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["items_per_pass"]
    ]
    (gate,) = [node for node in props.body if isinstance(node, ast.FunctionDef) and node.name == "gate"]
    (want,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(gate)
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["want"]
    ]
    assert items == want["rows"] == sum(len(rows) for rows in suites.SUITES.values())


def test_library_has_no_assert_statement():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_validator_modules_import_no_numpy(run_python):
    """Every module of the library, not only the validators; and a fresh
    ``import bistone.cli`` loads no numpy."""
    offenders = []
    paths = sorted(LIBRARY.glob("*.py"))
    assert {"lattice.py", "dlattice.py", "ideals.py", "suites.py"} <= {path.name for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "numpy"]
    assert offenders == []
    loaded = run_python("-c", "import sys, bistone.cli; print('numpy' in sys.modules)")
    assert (loaded.returncode, loaded.stdout) == (0, "False\n")


def names_in_scope(path, module, name):
    """Dotted names of the scopes (functions, classes, or the module itself)
    in one module whose own code names ``module.name``, under either import
    form, decorators included."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in child.decorator_list:
                    visit(ast.Expression(decorator), scope + [child.name])
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute)
                and child.attr == name
                and isinstance(child.value, ast.Name)
                and child.value.id == module
            ):
                found.add(".".join([path.stem] + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def permutation_callers(path):
    """Dotted names of the functions in one module whose own body calls
    ``itertools.permutations``, under either import form."""
    return names_in_scope(path, "itertools", "permutations")


def test_only_named_functions_scan_all_relabelings():
    callers = set()
    for path in sorted(LIBRARY.glob("*.py")):
        callers |= permutation_callers(path)
    assert callers == {"duality._relabel_tables"}


def subset_scanners(path):
    """Dotted names of the functions in one module whose own body iterates
    ``range(1 << …)``, every subset of a set of points or pairs."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "range"
                and any(
                    isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, ast.LShift)
                    and isinstance(arg.left, ast.Constant)
                    and arg.left.value == 1
                    for arg in child.args
                )
            ):
                found.add(".".join([path.stem] + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_only_named_functions_scan_every_subset():
    """Down-sets, ideals and topologies come from ``lattice.closed_sets``,
    which visits closed sets only.  The three left need every code: each
    relation on a pair list, each subset of the atoms of 2^k, and the image
    of each subset mask under a relabeling."""
    scanners = set()
    for path in sorted(LIBRARY.glob("*.py")):
        scanners |= subset_scanners(path)
    assert scanners == {"lattice.transitive_relations", "corpus.boolean_lattice", "duality._relabel_tables"}


def test_only_named_functions_hold_an_lru_cache():
    """Every ``functools.lru_cache`` or ``functools.cache`` site in the
    library, so that no second cache of the tables of a coordinate pair
    (``dlattice.CoordinateTables``, shared by ``_shared_tables``) creeps
    in unseen."""
    sites = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for name in ("lru_cache", "cache"):
            sites |= names_in_scope(path, "functools", name)
    assert sites == {
        "corpus.unlabeled_posets_of_size",
        "dlattice._shared_tables",
        "dlattice.bool_dlattice",
        "duality._relabel_tables",
    }


def test_dlattice_init_sets_only_the_four_fields():
    """``DLattice.__init__`` sets plus, minus, con_mask and tot_mask and
    nothing else: the held spectrum is written on first read, because a
    Q2 census builds tens of thousands of d-lattices and most are never
    asked for their spectrum.  Each field is set as ``setter(self, value)``
    with a setter bound at module level as ``DLattice.name.__set__``, as
    ``object.__setattr__(self, name, value)`` or as ``self.name = value``."""
    tree = ast.parse((LIBRARY / "dlattice.py").read_text(encoding="utf-8"))
    setters = {}  # module-level name: the DLattice slot whose setter it binds
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == "__set__":
            slot = node.value.value
            if isinstance(slot, ast.Attribute) and ast.unparse(slot.value) == "DLattice":
                (target,) = node.targets
                setters[target.id] = slot.attr
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DLattice"]
    (init,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assigned = []
    for node in ast.walk(init):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            assigned.append(ast.literal_eval(node.args[1]))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in setters:
            assert ast.unparse(node.args[0]) == "self"
            assigned.append(setters[ast.unparse(node.func)])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            assigned.append(node.attr)
    assert assigned == ["plus", "minus", "con_mask", "tot_mask"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(top):
    """The names a top-level statement defines: a def or class, or the
    names an assignment binds (``__all__`` aside, which only lists)."""
    if isinstance(top, DEFINITIONS):
        return [top.name]
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id != "__all__"
        ]
    return []


def references(tree):
    """Each name, attribute or imported name a module refers to, with
    whether it is an attribute and the lines of the top-level statement and
    of the class member it lies in (the statement's own line outside a
    class), so that a definition's own name and body do not count.  Strings
    and comments are not references."""
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for member in members:
            for node in ast.walk(member):
                if isinstance(node, ast.Name):
                    yield node.id, False, (top.lineno, member.lineno)
                elif isinstance(node, ast.Attribute):
                    yield node.attr, True, (top.lineno, member.lineno)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        yield alias.name.rpartition(".")[2], False, (top.lineno, member.lineno)


def definitions(tree):
    """(name, dotted name, own statement) of each top-level definition and
    each method of a top-level class, dunder methods aside (Python calls
    them).  A site inside the own statement is (top line, member line) with
    the member line None for a whole top-level statement."""
    for top in tree.body:
        for name in defined_names(top):
            yield name, name, (top.lineno, None)
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
                    yield node.name, f"{top.name}.{node.name}", (top.lineno, node.lineno)


def fields(tree):
    """(class name, field name) of each field of a top-level class: the
    annotated names of a ``@dataclass`` and the names in ``__slots__``."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            continue
        dataclass = any(ast.unparse(d).partition("(")[0] == "dataclass" for d in top.decorator_list)
        for node in top.body:
            if dataclass and isinstance(node, ast.AnnAssign):
                yield top.name, node.target.id
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__slots__"]:
                for name in ast.literal_eval(node.value):
                    yield top.name, name


# fields the library reads other than as ``x.name``, with how
UNREAD_FIELDS = {
    "dlattice.DLattice.held_spectrum": "read by getattr with a default, as the slot is unset until spectrum writes it",
}


def test_every_library_definition_is_reached():
    """Each top-level def, class or assigned name of the library is referred
    to by name, attribute or import, and each method of its classes by
    attribute (``x.rows``; a local variable ``rows`` is no call), in the
    library or in ``bench/*.py``, outside its own statement.  There is no
    allow-list: a definition only tests reach belongs in ``tests/``.

    Each field of a library class (``fields``) is read as an attribute
    somewhere in the library, or is listed in ``UNREAD_FIELDS`` with the
    way it is read.  Reads are matched by name, as methods are: a field
    shares its reads with every field or method of the same name."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(LIBRARY.glob("*.py")) + sorted(BENCH.glob("*.py"))
    }
    sites = defaultdict(set)  # name -> the (module path, is attribute, (top line, member line)) referring to it
    for path, tree in trees.items():
        for name, attribute, owner in references(tree):
            sites[name].add((path, attribute, owner))

    def reaches(site, path, dotted, own):
        site_path, attribute, (top, member) = site
        if "." in dotted and not attribute:
            return False
        return not (site_path == path and top == own[0] and own[1] in (None, member))

    unreached = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for name, dotted, own in definitions(trees[path]):
            if not any(reaches(site, path, dotted, own) for site in sites[name]):
                unreached[dotted] = f"{path.stem}.{dotted}"
    assert unreached == {}
    read = {
        node.attr
        for path in LIBRARY.glob("*.py")
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        f"{path.stem}.{cls}.{name}"
        for path in sorted(LIBRARY.glob("*.py"))
        for cls, name in fields(trees[path])
        if name not in read
    }
    assert unread == set(UNREAD_FIELDS)


# Run in a fresh interpreter: record the code object of every Python
# function entered while ``cli.main`` runs each argv of the JSON file named
# by argv[1], and print the (file, first line) of each library def among
# them (not a module, lambda or comprehension, whose names are ``<…>``).
ENTERED_SCRIPT = """
import contextlib, io, json, os, sys
import bistone
from bistone.cli import main

library = os.path.dirname(os.path.realpath(bistone.__file__))
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

with open(sys.argv[1], encoding="utf-8") as fh:
    argvs = json.load(fh)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.setprofile(record)
    for argv in argvs:
        main(argv)
    sys.setprofile(None)
sites = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes if c.co_name[0] != "<"}
print(json.dumps(sorted(site for site in sites if site[0].startswith(library))))
"""

# defs no command enters, with why
UNENTERED_FUNCTIONS = {
    "dlattice.DLattice.__setattr__": "immutability guard; test_held_duals.py calls it",
    "dlattice.DLattice.__delattr__": "immutability guard; test_held_duals.py calls it",
}


def library_functions():
    """{(file, first line): dotted name} of every def in the library,
    methods and nested functions included.  The first line is that of a
    code object: the first decorator's, if any."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                name = scope + [child.name]
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = ".".join([path.stem] + name)
                visit(child, path, name)
            else:
                visit(child, path, scope)

    for path in sorted(LIBRARY.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [])
    return found


def test_every_library_function_is_entered_by_cli_traffic(tmp_path, run_python):
    """Each def under ``src/bistone/`` is entered by one of: the commands of
    ``test_cli_golden.py``; ``gen --bounds 3`` for each kind and ``props
    --suite lattice_core`` on the generated posets; ``validate``, ``spec``,
    ``clop`` and ``roundtrip`` on every golden input; and ``validate`` on
    two d-lattices whose con fails a clause, one missing a smaller pair (the
    closure names it) and one a down-set that logic meet leaves (the member
    scan names the pair).  A function only tests enter belongs in
    ``tests/``.  A fresh interpreter holds no cache or per-record table
    from earlier tests, so every first-call path runs."""
    not_closed = json.loads((INPUTS / "dlattice.json").read_text(encoding="utf-8"))
    not_closed["con"].remove([0, 0])
    not_logic_closed = json.loads((INPUTS / "dboolean.json").read_text(encoding="utf-8"))
    del not_logic_closed["dagger"]
    not_logic_closed["kind"] = "dlattice"
    not_logic_closed["con"] = [c for c in not_logic_closed["con"] if c not in ([1, 1], [2, 2], [3, 3])]
    argvs = [argv for argv, _ in COMMANDS.values()]
    argvs += [["gen", "--kind", kind, "--bounds", "3", "--out", str(tmp_path / kind)] for kind in sorted(GEN_KINDS)]
    argvs.append(["props", "--suite", "lattice_core", "--corpus", str(tmp_path / "posets")])
    argvs += [
        [command, "--in", str(path)]
        for command in ("validate", "spec", "clop", "roundtrip")
        for path in sorted(INPUTS.glob("*.json"))
    ]
    for name, doc in (("not_closed.json", not_closed), ("not_logic_closed.json", not_logic_closed)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        argvs.append(["validate", "--in", str(tmp_path / name)])
    (tmp_path / "argvs.json").write_text(json.dumps(argvs), encoding="utf-8")
    result = run_python("-c", ENTERED_SCRIPT, str(tmp_path / "argvs.json"))
    assert result.returncode == 0, result.stderr
    entered = {tuple(site) for site in json.loads(result.stdout)}
    functions = library_functions()
    assert entered <= set(functions)
    unentered = {name for site, name in functions.items() if site not in entered}
    assert unentered == set(UNENTERED_FUNCTIONS)
