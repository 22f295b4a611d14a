"""Source hygiene: every module-level import in src/diraclab is used, every
name a function stores is read somewhere in that function, every parameter
is read, every record field is read somewhere in src or allowlisted with a
reason, only the CLI imports the scenario builders, only scenarios imports
the rotation family and only the CLI the document schemas, importing the CLI
does not load morita, groupoid, coisotropic, intersection, rotation, schema
or dataclasses, verifying each scenario (and dumping or reducing one) loads
only the diraclab modules it runs, no module uses dataclasses or the
namedtuple constructors that skip validation, only the five relation
operations and the matrix product are memoized, every memo returns an
immutable record, every public function is reached from src or allowlisted
with a reason, and every function the benchmark's traced run wraps exists
in the module that defines it."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "diraclab"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # string annotations ("Name") and __all__ entries also count as uses
    used |= {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c\nprint(a)\n")
    assert unused_imports(tree) == ["b (line 1)", "c (line 2)"]


def unread_locals(tree: ast.Module) -> list[str]:
    """Names a function stores but never reads, as "function.name (line)".

    A name counts as read if the function, or a function nested in it,
    loads it; an augmented assignment reads its target.  Names starting
    with "_" and names declared global or nonlocal are exempt.
    """
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded, exempt = {}, set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                loaded.add(node.target.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                else:
                    stored.setdefault(node.id, node.lineno)
        out += [f"{fn.name}.{name} (line {line})"
                for name, line in sorted(stored.items(), key=lambda kv: kv[1])
                if name not in loaded and name not in exempt
                and not name.startswith("_")]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_function_locals(path):
    assert unread_locals(ast.parse(path.read_text())) == []


def test_detects_an_unread_local():
    tree = ast.parse(
        "def f(xs):\n"
        "    dead = len(xs)\n"
        "    for i, x in enumerate(xs):\n"
        "        print(x)\n"
        "    n = 0\n"
        "    n += 1\n"
        "    _ignored = 1\n"
        "    def g():\n"
        "        return kept\n"
        "    kept = 2\n"
        "    return g\n")
    assert unread_locals(tree) == ["f.dead (line 2)", "f.i (line 3)"]


def unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters a function never reads, as "function.name (line)".

    A parameter counts as read if the function, or a function or lambda
    nested in it, loads it.  Dunder methods, whose signatures a protocol
    fixes, and names starting with "_" are exempt.
    """
    out = []
    for fn in ast.walk(tree):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        a = fn.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        loaded = {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{fn.name}.{p.arg} (line {p.lineno})" for p in params
                if p.arg not in loaded and not p.arg.startswith("_")]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text())) == []


def test_unread_parameters_sees_every_form():
    tree = ast.parse(
        "def f(a, b, /, c, *args, d, _e, **kw):\n"
        "    return lambda: a + c\n"
        "class C:\n"
        "    def __call__(self, u): pass\n"
        "    def m(self, v):\n"
        "        def g(w):\n"
        "            return v\n"
        "        return g\n")
    assert unread_parameters(tree) == [
        "f.b (line 1)", "f.args (line 1)", "f.d (line 1)", "f.kw (line 1)",
        "m.self (line 5)", "g.w (line 6)"]


def record_fields(tree: ast.Module):
    """(class, field) of every annotated field of a @record class."""
    for cls in ast.walk(tree):
        if (isinstance(cls, ast.ClassDef)
                and any(isinstance(d, ast.Name) and d.id == "record"
                        for d in cls.decorator_list)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.target.id


def unread_fields(trees: dict) -> list[str]:
    """"module.Class.field" of every record field that no tree reads as an
    attribute, sorted.  The rule goes by name, so a field that shares its
    name with an attribute read elsewhere (a common one such as dim) passes."""
    read = {n.attr for t in trees.values() for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{mod}.{cls}.{name}" for mod, tree in trees.items()
                  for cls, name in record_fields(tree) if name not in read)


# Record fields that nothing in src reads, each with the reason it stays.
UNREAD_FIELDS = {
    "intersection.Intersection.ledger": "the per-point ranks behind the cleanness "
    "records; the tests read it to check those records against the ranks",
}


def test_every_record_field_is_read_or_allowlisted():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert unread_fields(trees) == sorted(UNREAD_FIELDS)


def test_unread_fields_sees_every_form():
    tree = ast.parse("@record\n"
                     "class R:\n"
                     "    a: int\n"
                     "    b: int = 0\n"
                     "    c: int\n"
                     "    def m(self):\n"
                     "        return self.a\n"
                     "class Plain:\n"
                     "    d: int\n"
                     "def f(r):\n"
                     "    r.b = 1\n"
                     "    return replace(r, c=2)\n")
    other = ast.parse("def g(x):\n    return x.c\n")
    assert unread_fields({"m": tree}) == ["m.R.b", "m.R.c"]
    assert unread_fields({"m": tree, "n": other}) == ["m.R.b"]


def package_imports(tree: ast.Module) -> set[str]:
    """The diraclab modules a module imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_imports_scenarios(path):
    # the checkers take their fixtures from their callers, never from scenarios
    if path.stem not in ("cli", "scenarios"):
        assert "scenarios" not in package_imports(ast.parse(path.read_text()))


# diraclab modules that only one other module may import, and that one: the
# code of the rotation family loads only through its entry points in
# scenarios, and the document schemas only through dump and reduce
IMPORTED_ONLY_BY = {"rotation": "scenarios", "schema": "cli"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rotation_and_schema_have_one_importer(path):
    imported = package_imports(ast.parse(path.read_text()))
    assert sorted(mod for mod, importer in IMPORTED_ONLY_BY.items()
                  if mod in imported and path.stem != importer) == []


def test_package_imports_sees_every_form():
    tree = ast.parse("from . import scenarios as sc\n"
                     "from .linalg import kernel\n"
                     "def f():\n"
                     "    from .groupoid import qs_check\n"
                     "import json\n")
    assert package_imports(tree) == {"scenarios", "linalg", "groupoid"}


def test_importing_the_cli_does_not_load_morita():
    # only three suites use morita and three use dorfman, the Dorfman frames
    # use none of groupoid, coisotropic and intersection, only the circle and
    # torus builders use rotation, only dump and reduce use schema, and only
    # content_hash uses hashlib (which loads OpenSSL), so each is imported
    # where it is used: at the top of cli its import time would be paid by
    # every command at start-up; records are namedtuples, because dataclasses
    # imports inspect and execs several methods per class
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = ("import sys; before = set(sys.modules); import diraclab.cli; "
             "print(sorted({'diraclab.morita', 'diraclab.dorfman', 'diraclab.groupoid',"
             " 'diraclab.coisotropic', 'diraclab.intersection', 'diraclab.rotation',"
             " 'diraclab.schema', 'hashlib',"
             " 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# The diraclab modules that `verify` on each shipped scenario, with its
# default params and every suite, loads in a fresh interpreter: the modules
# every command loads, plus those its suites run.  No verify loads schema
EVERY_COMMAND = {"cli", "records", "report", "linalg", "courant", "scenarios", "serialize"}
CHECKERS = {"groupoid", "coisotropic", "intersection", "morita"}
LOADED_BY_VERIFY = {
    "so3": EVERY_COMMAND | {"dorfman"},
    "graph-twist": EVERY_COMMAND | {"dorfman"},
    "twist-mismatch": EVERY_COMMAND | {"dorfman"},
    "pair-corrupt-sigma": EVERY_COMMAND | {"groupoid"},
    "line-bivector": EVERY_COMMAND | {"groupoid", "coisotropic"},
    "torus": EVERY_COMMAND | {"groupoid", "coisotropic", "morita", "rotation"},
    "pair": EVERY_COMMAND | CHECKERS,
    "circle": EVERY_COMMAND | CHECKERS | {"rotation"},
}

# The same for the commands that write documents, on a scenario with its
# default params: both load schema
LOADED_BY_COMMAND = {
    ("reduce", "circle"): EVERY_COMMAND | CHECKERS | {"rotation", "schema"},
    ("dump", "pair"): EVERY_COMMAND | {"groupoid", "schema"},
}


def test_the_load_table_names_every_scenario():
    from diraclab.cli import SCENARIOS
    assert sorted(LOADED_BY_VERIFY) == sorted(SCENARIOS)


def loaded_modules(tmp_path, cmd: str, name: str) -> str:
    """The diraclab modules `cmd` on the named scenario, with its default
    params, loads in a fresh interpreter, printed as a sorted list."""
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({"name": name}))
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = ("import sys; from diraclab import cli; code = cli.main(sys.argv[1:]); "
             "print(sorted(m.removeprefix('diraclab.') for m in sys.modules"
             " if m.startswith('diraclab.')),"
             " file=sys.stderr); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", probe, cmd, str(spec)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1), done.stderr
    return done.stderr


@pytest.mark.parametrize("name", sorted(LOADED_BY_VERIFY))
def test_verify_loads_only_the_modules_its_scenario_runs(tmp_path, name):
    assert loaded_modules(tmp_path, "verify", name) == f"{sorted(LOADED_BY_VERIFY[name])}\n"


@pytest.mark.parametrize("cmd, name", sorted(LOADED_BY_COMMAND))
def test_dump_and_reduce_load_only_the_modules_they_run(tmp_path, cmd, name):
    assert (loaded_modules(tmp_path, cmd, name)
            == f"{sorted(LOADED_BY_COMMAND[(cmd, name)])}\n")


def record_misuses(tree: ast.Module) -> list[str]:
    """Every import of dataclasses, and every call of namedtuple's _replace
    or _make, which build a record without running its __post_init__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [f"import {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append(f"from dataclasses (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("_replace", "_make")):
            out.append(f"{node.func.attr} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_records_are_built_through_their_class(path):
    assert record_misuses(ast.parse(path.read_text())) == []


def test_record_misuses_sees_every_form():
    tree = ast.parse("import dataclasses\n"
                     "from dataclasses import replace\n"
                     "def f(x, y):\n"
                     "    return x._replace(a=1), type(y)._make([1]), x.replace(a=1)\n")
    assert record_misuses(tree) == ["import dataclasses (line 1)",
                                    "from dataclasses (line 2)",
                                    "_replace (line 4)", "_make (line 4)"]


MEMOS = {"cache", "lru_cache"}

# the relation operations and the matrix product, which a run repeats on
# equal frozen inputs; a memo anywhere else is a deliberate change to this
# table
MEMOIZED = {"courant": ["dirac_sum", "graph_two_form", "pullback", "pushforward"],
            "linalg": ["_composite", "fiber_product"]}


def qualified_defs(node, prefix=""):
    """(qualified name, node) of every function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from qualified_defs(child, f"{prefix}{child.name}.")
        else:
            yield from qualified_defs(child, prefix)


def memo_sites(tree: ast.Module) -> list[str]:
    """Every use of functools.cache or lru_cache, sorted: the qualified name
    of the function it decorates, or "line N" for any other use."""
    decorates = {}
    for qual, node in qualified_defs(tree):
        for dec in node.decorator_list:
            decorates[id(dec.func if isinstance(dec, ast.Call) else dec)] = qual
    uses = [n for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and n.id in MEMOS)
            or (isinstance(n, ast.Attribute) and n.attr in MEMOS)]
    return sorted(decorates.get(id(n), f"line {n.lineno}") for n in uses)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_relation_operations_are_memoized(path):
    assert memo_sites(ast.parse(path.read_text())) == MEMOIZED.get(path.stem, [])


def test_memo_sites_sees_every_form():
    tree = ast.parse("import functools\n"
                     "from functools import cache, cached_property, lru_cache\n"
                     "@cache\n"
                     "def f(): pass\n"
                     "class C:\n"
                     "    @functools.lru_cache(maxsize=2)\n"
                     "    def g(self): pass\n"
                     "    @cached_property\n"
                     "    def p(self): pass\n"
                     "h = cache(len)\n")
    assert memo_sites(tree) == ["C.g", "f", "line 10"]


MUTABLE = {"list", "dict", "set"}


def annotation_names(node) -> set[str]:
    """Every name an annotation mentions, inside string annotations too."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= annotation_names(ast.parse(n.value, mode="eval"))
    return names


def immutable_records(trees) -> set[str]:
    """The @record classes of the trees whose fields hold no list, dict or
    set, directly or through another record, and take no default factory."""
    fields = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list):
                stmts = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                fields[node.name] = (set().union(*[annotation_names(s.annotation) for s in stmts]),
                                     any(isinstance(s.value, ast.Call) for s in stmts))
    mutable = {name for name, (names, fresh) in fields.items() if fresh or names & MUTABLE}
    while more := {name for name, (names, _) in fields.items() if names & mutable} - mutable:
        mutable |= more
    return set(fields) - mutable


def memos_not_returning_records(tree: ast.Module, records: set[str]) -> list[str]:
    """"qualname -> annotation" of every function memoized with functools.cache
    or lru_cache whose return annotation is not the name of one of records,
    sorted.  A memo hands its one result to every caller, so that result
    must be immutable."""
    out = []
    for qual, node in qualified_defs(tree):
        decs = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if isinstance(node, ast.ClassDef) or not any(
                (isinstance(d, ast.Name) and d.id in MEMOS)
                or (isinstance(d, ast.Attribute) and d.attr in MEMOS) for d in decs):
            continue
        ann = node.returns
        name = (ann.value if isinstance(ann, ast.Constant)
                else ann.id if isinstance(ann, ast.Name) else None)
        if name not in records:
            out.append(f"{qual} -> {ann and ast.unparse(ann)}")
    return sorted(out)


SRC_RECORDS = immutable_records(ast.parse(p.read_text()) for p in SRC.glob("*.py"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_returns_an_immutable_record(path):
    assert memos_not_returning_records(ast.parse(path.read_text()), SRC_RECORDS) == []


def test_memo_returns_sees_every_form():
    # a report gathers its records in a list, so it is no memo result, nor
    # is a record that holds one
    assert {"LinMap", "Subspace", "DiracFiber"} <= SRC_RECORDS
    assert not {"VerificationReport", "Intersection", "TransferResult"} & SRC_RECORDS
    assert immutable_records([ast.parse("@record\n"
                                        "class Frozen:\n"
                                        "    rows: tuple[int, ...]\n"
                                        "    den: int = 1\n"
                                        "@record\n"
                                        "class Fresh:\n"
                                        "    n: int = field(default_factory=int)\n"
                                        "@record\n"
                                        "class Holder:\n"
                                        "    inner: 'tuple[Fresh, ...]'\n"
                                        "class Plain:\n"
                                        "    rows: tuple\n")]) == {"Frozen"}
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@cache\n"
                     "def f(x) -> LinMap: pass\n"
                     "@cache\n"
                     "def g(x) -> 'Subspace': pass\n"
                     "@cache\n"
                     "def h(x) -> VerificationReport: pass\n"
                     "class C:\n"
                     "    @functools.lru_cache(maxsize=2)\n"
                     "    def m(self) -> list: pass\n"
                     "@cache\n"
                     "def k(x): pass\n"
                     "@cache\n"
                     "def o(x) -> 'LinMap | None': pass\n"
                     "def plain(x) -> list: pass\n")
    assert memos_not_returning_records(tree, SRC_RECORDS) == [
        "C.m -> list", "h -> VerificationReport", "k -> None", "o -> 'LinMap | None'"]


# Public functions and methods that no code in src reaches, grouped by the
# reason they stay.  The list is exact: a function that src starts to reach
# leaves it, and a function that nothing reaches and no group explains fails
# the test below.
UNREACHED = {
    "paper identity awaiting a CLI path: a suite that runs it adds verdict "
    "records, which need rows in perfbench/expected.py": {
        "groupoid.gauge_qs", "intersection.homotopy_intersection",
        "morita.nat_trans_form_identity", "morita.star_composite_form_identity",
        "scenarios.pair_nat_trans_fixture"},
    "test oracle: an independent computation the tests compare a reached "
    "path against": {
        "courant.ThreeFormFiber.coeff", "courant.is_lagrangian", "courant.two_form_of",
        "dorfman.pairing"},
    "fixture builder: the tests build Dirac fibers and vectors with it": {
        "courant.cotangent_dirac", "courant.tangent_dirac",
        "linalg.basis_vec", "linalg.random_antisymmetric", "linalg.zero_vec"},
}


def name_counts(node, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often each identifier occurs under node as an ast.Name or as the
    attribute of an ast.Attribute, counting only nodes of the given kinds."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


def import_bindings(tree: ast.Module) -> tuple[dict, dict]:
    """What the module's relative imports bind, at any depth: (names,
    modules).  names maps each local name to the (module, name) it imports
    by `from .module import name [as local]`, and modules maps each local
    name to the module it binds by `from . import module [as local]`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    names[a.asname or a.name] = (node.module, a.name)
                else:
                    modules[a.asname or a.name] = a.name
    return names, modules


def unreached(trees: dict) -> list[str]:
    """"module.qualname" of every public function or method that no tree
    reaches outside its own definition, sorted.  A method, a def directly
    in a class body, is reached only through an attribute of its name: a
    function of the same name that is called does not reach it.  Any other
    function is reached by its name in its own module, or, in another
    module, by a name an import binds to it or an attribute of a module
    alias bound to its module: a function of the same name in another
    module does not reach it."""
    methods = {id(d) for t in trees.values() for c in ast.walk(t)
               if isinstance(c, ast.ClassDef) for d in c.body}
    as_attribute = sum((name_counts(t, (ast.Attribute,)) for t in trees.values()), Counter())
    as_name = {mod: name_counts(t, (ast.Name,)) for mod, t in trees.items()}
    imported = Counter()   # (module, name) -> reads from other modules
    for mod, tree in trees.items():
        names, modules = import_bindings(tree)
        for local, target in names.items():
            imported[target] += as_name[mod][local]
        imported.update((modules[n.value.id], n.attr) for n in ast.walk(tree)
                        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                        and n.value.id in modules)
    out = []
    for mod, tree in trees.items():
        for qual, node in qualified_defs(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            if id(node) in methods:
                reached = as_attribute[node.name] > name_counts(node, (ast.Attribute,))[node.name]
            else:
                reached = (as_name[mod][node.name] > name_counts(node, (ast.Name,))[node.name]
                           or imported[(mod, node.name)] > 0)
            if not reached:
                out.append(f"{mod}.{qual}")
    return sorted(out)


def test_every_public_function_is_reached_or_allowlisted():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert unreached(trees) == sorted(set().union(*UNREACHED.values()))


def test_unreached_sees_every_form():
    tree = ast.parse("def rec(n):\n"
                     "    return rec(n - 1)\n"
                     "def used(): pass\n"
                     "def _private(): pass\n"
                     "class C:\n"
                     "    def method(self): pass\n"
                     "    def called(self): pass\n"
                     "    def shared(self): pass\n"
                     "def shared(): pass\n"
                     "x = used\n"
                     "C().called()\n"
                     "shared()\n")
    assert unreached({"m": tree}) == ["m.C.method", "m.C.shared", "m.rec"]


def test_unreached_resolves_functions_through_imports():
    a = ast.parse("def f(): pass\n"
                  "def g(): pass\n"
                  "def h(): pass\n"
                  "def k(): pass\n"
                  "def m(): pass\n")
    b = ast.parse("from .a import f as ff\n"
                  "from . import a as mod\n"
                  "ff()\n"
                  "mod.g()\n"
                  "def use():\n"
                  "    from .a import h\n"
                  "    return h()\n"
                  "def k(): pass\n"
                  "k()\n"
                  "other.m()\n")
    assert unreached({"a": a, "b": b}) == ["a.k", "a.m", "b.use"]


def test_every_traced_function_exists():
    # perfbench/layers.py names the functions traced_cli.py wraps, each in
    # its defining module, as a function or as Class.method: a name that
    # resolves there through a re-export or a module __getattr__ would trace
    # a function defined elsewhere under its key
    path = SRC.parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for mod_name, names in layers.TRACED.items():
        module = importlib.import_module(f"diraclab.{mod_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            home = vars(module).get(owner) if owner else module
            obj = vars(home).get(attr) if home is not None else None
            defined_in = getattr(home if owner else obj, "__module__", None)
            if not callable(obj) or defined_in != f"diraclab.{mod_name}":
                missing.append(f"{mod_name}.{name}")
    assert missing == []
    assert layers.DISTINCT <= set(layers.keys())
