"""Source hygiene for src/contactps, checked with the stdlib `ast` rather
than an external linter.

- No module imports a name it never uses: a name counts as used when the
  module reads it anywhere.
- The package's `__init__.py` imports nothing, so importing one module
  loads only that module and what it imports itself: a process that
  imports `contactps.algebra` holds no other `contactps` module.
- No module imports a leading-underscore name from another `contactps`
  module, nested imports included: a module reaches another only through
  its public API.
- No float infinity (`float("inf")`, `math.inf`) stands in for an infinite
  order or type: infinite claims are a kind of their own, never a value.
- No module but `algebra.py` reads the private int fields `_a`, `_b`, `_d`
  of `GaussianRational`: there is one scalar type behind one public API
  (`re`, `im` and the operators).  The kernel's property test is the one
  exception, because the invariants it checks are statements about those
  fields.
- No file but `algebra.py` names `_from_terms`, `_mul_terms`,
  `_term_move`, `_multi_products`, `_add_raw` or `_add_weighted_square`:
  the unchecked constructor, the term-product loop, and the single-term
  map, the multi-term products and the accumulators of unreduced sums on
  raw scalar fields that `substitute` and `weighted_square_terms` run serve
  only the polynomial type's own arithmetic, whose results hold the
  invariant they rely on.
- Every `hypothesis` `settings(...)` under `tests/` passes
  `derandomize=True` and `database=None`, and every `@given` test carries
  one, so the suite draws the same examples on every run.
- Every function parameter is read in the function's body.  Dunder
  methods are exempt.
- Every `(module, attr)` that the traced benchmark (`bench/spans.py`)
  wraps resolves to a callable, every name that a `bench/*.py` file imports
  from `contactps` exists, and every method that `bench/micro.py` records
  (`_record(cls, name, ...)` reads `cls.__dict__[name]`) is defined in its
  class itself, so a refactor that drops or moves one of them fails here
  and not only in `bench/run.py --trace 1`.
- No function, class or method is defined twice in one scope (a module,
  class or function body), under `src/`, `tests/` or `bench/`: Python keeps
  only the last definition, so the earlier one is dead code that can
  mislead a reader, or a test that never runs.
- No module imports `sympy`, nested imports included: the program runs on
  its own exact arithmetic, and only the tests and the benchmark's oracle
  use sympy, as a reference.
- The third-party modules that `src/contactps` imports are exactly the
  `dependencies` of `pyproject.toml`: none is missing and none is unused.
  CPython's built-in SHA-2 modules count as stdlib on every version.
- In `report.py`, `validate`, `normalize_to_graph` and `gram_certificate`
  are called (or passed on) only inside `GermAnalysis`: every command reads
  its frames and certificates off its analysis, so none wires its own
  again.
- Every top-level function and class in `src/contactps`, and every method,
  is reachable by name from `cli.main` and the code that runs at import
  (which holds `report.COMMANDS` and its handlers), or is on UNREACHED with
  its reason; a name looked up by a string would need an entry too.  The
  walk follows names only, so it over-approximates what runs.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contactps"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_the_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_importing_one_module_loads_no_other():
    """algebra imports no other contactps module, and neither does the
    package root, so importing it loads only the package and itself."""
    script = ("import sys, contactps.algebra; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'contactps'))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "['contactps', 'contactps.algebra']\n"


def _private_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "contactps"
        ):
            found += [f"{node.module}.{alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_names_imported_across_modules():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def _float_infinities(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float" and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.strip().lower().lstrip("+-") in ("inf", "infinity")):
            found.append(f"float({node.args[0].value!r}) (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr == "inf"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"math.inf (line {node.lineno})")
    return found


def test_no_float_infinity_sentinels():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = _float_infinities(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


SCALAR_FIELDS = {"_a", "_b", "_d"}
SCALAR_FIELD_READERS = {SRC / "algebra.py", ROOT / "tests" / "test_scalar_kernel.py"}


def _scalar_field_reads(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_FIELDS:
            found.append(f".{node.attr} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in SCALAR_FIELDS):
            found.append(f"{node.func.id}(..., {node.args[1].value!r}) (line {node.lineno})")
    return found


def test_scalar_fields_stay_private_to_algebra():
    found = {}
    paths = [*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    for path in sorted(paths):
        if path in SCALAR_FIELD_READERS:
            continue
        hits = _scalar_field_reads(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}


ALGEBRA_INTERNALS = {"_from_terms", "_mul_terms", "_term_move", "_multi_products", "_add_raw",
                     "_add_weighted_square"}


def _algebra_internal_names(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ALGEBRA_INTERNALS:
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in ALGEBRA_INTERNALS:
            found.append(f".{node.attr} (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.rpartition(".")[2] in ALGEBRA_INTERNALS]
    return found


def test_unchecked_constructor_stays_inside_algebra():
    found = {}
    paths = [*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    for path in sorted(paths):
        if path == SRC / "algebra.py":
            continue
        hits = _algebra_internal_names(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}
    algebra = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    assert ALGEBRA_INTERNALS <= {n.name for n in algebra.body if isinstance(n, ast.FunctionDef)}


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)


def _nondeterministic_hypothesis(tree: ast.Module) -> tuple[list[str], int]:
    """Settings calls without derandomize=True and database=None, and @given
    tests without a settings decorator; plus the number of settings calls."""
    found, count = [], 0
    settings_names = {"settings"}
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_call_to(node.value, "settings"):
            settings_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if _is_call_to(node, "settings"):
            count += 1
            kw = {k.arg: k.value for k in node.keywords}
            if not all(isinstance(kw.get(arg), ast.Constant) and kw[arg].value is value
                       for arg, value in (("derandomize", True), ("database", None))):
                found.append(f"settings(...) (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = node.decorator_list
            if (any(_is_call_to(d, "given") for d in decorators)
                    and not any(_is_call_to(d, "settings")
                                or isinstance(d, ast.Name) and d.id in settings_names
                                for d in decorators)):
                found.append(f"@given without settings: {node.name} (line {node.lineno})")
    return found, count


def test_hypothesis_runs_are_deterministic():
    found, count = {}, 0
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        hits, n = _nondeterministic_hypothesis(ast.parse(path.read_text(encoding="utf-8")))
        count += n
        if hits:
            found[path.name] = hits
    assert found == {}
    assert count > 0


def _span_sites() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    sites = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("WRAP_SITES", "GENERATOR_SITES"):
                sites[name] = ast.literal_eval(node.value)
    assert set(sites) == {"WRAP_SITES", "GENERATOR_SITES"}
    return [site[:2] for entries in sites.values() for site in entries]


def test_traced_benchmark_sites_resolve():
    missing = [f"{mod}.{attr}" for mod, attr in _span_sites()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) of every `from contactps... import name` in bench/*.py,
    nested imports included."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module.split(".")[0] == "contactps"):
                found += [(node.module, alias.name) for alias in node.names]
    return found


def _micro_recorded_methods() -> list[tuple[str, str]]:
    """(class, method) of every `_record(cls, "name", ...)` in bench/micro.py."""
    tree = ast.parse((ROOT / "bench" / "micro.py").read_text(encoding="utf-8"))
    return [(node.args[0].id, node.args[1].value) for node in ast.walk(tree)
            if _is_call_to(node, "_record") and isinstance(node.args[1], ast.Constant)]


def test_benchmark_imports_and_recorded_methods_resolve():
    """The traced run imports bench/micro.py, which records operands by
    swapping methods in their class's __dict__: a name it imports or a
    method it swaps that is gone fails here, not as an exit 1 of
    `bench/run.py --trace 1`."""
    imports = _bench_imports()
    assert ("contactps.cli", "main") in imports
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
    recorded = _micro_recorded_methods()
    assert {("GaussianRational", "__mul__"), ("GaussianRational", "__add__"),
            ("GaussianRational", "__truediv__"), ("CPolynomial", "__mul__")} <= set(recorded)
    owner = {name: mod for mod, name in imports}
    assert [f"{cls}.{name}" for cls, name in recorded if not callable(
        vars(getattr(importlib.import_module(owner[cls]), cls)).get(name))] == []


def _unread_parameters(tree: ast.Module) -> list[str]:
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{owner}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    a = child.args
                    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg) if p is not None]
                    read = {n.id for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    found.extend(f"{owner}{name}: {p}" for p in params if p not in read)
                visit(child, f"{owner}{name}.")

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def _redefinitions(tree: ast.Module, module: str) -> list[str]:
    found = []

    def visit(node, owner):
        seen = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in seen:
                    found.append(f"{owner}{child.name} (line {child.lineno})")
                seen.add(child.name)
                visit(child, f"{owner}{child.name}.")

    visit(tree, f"{module}.")
    return found


def test_no_definition_is_shadowed_in_its_scope():
    found = []
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                        *(ROOT / "bench").rglob("*.py")]):
        found += _redefinitions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == []


def _imported_packages(tree: ast.Module) -> dict[str, int]:
    """The top-level package of every absolute import, nested imports
    included, with the line of its first import."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            found.setdefault(name.split(".")[0], node.lineno)
    return found


# CPython's built-in SHA-2 modules: `_sha2` from 3.12 on, `_sha256` before.
# sys.stdlib_module_names lists only the running interpreter's modules, so
# each is missing from it on the other versions, yet both are stdlib.
BUILTIN_SHA2 = {"_sha2", "_sha256"}


def _third_party_imports() -> dict[str, list[str]]:
    found = {}
    stdlib = sys.stdlib_module_names | BUILTIN_SHA2
    for path in sorted(SRC.rglob("*.py")):
        for name, line in _imported_packages(ast.parse(path.read_text(encoding="utf-8"))).items():
            if name not in stdlib and name != "contactps":
                found.setdefault(name, []).append(f"{path.name}:{line}")
    return found


def test_no_module_imports_sympy():
    assert _third_party_imports().get("sympy") is None


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}
    assert set(_third_party_imports()) == declared


ANALYSIS_ONLY = {"validate", "normalize_to_graph", "gram_certificate"}


def _uses_outside_class(tree: ast.Module, names: set[str], owner: str) -> list[str]:
    """Reads of names (calls, or passing the function on) outside the class
    owner; imports are not reads."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if not inside and (isinstance(child, ast.Name) and child.id in names
                               or isinstance(child, ast.Attribute) and child.attr in names):
                found.append(f"{ast.unparse(child)} (line {child.lineno})")
            visit(child, inside or isinstance(child, ast.ClassDef) and child.name == owner)

    visit(tree, False)
    return found


def test_report_frames_and_certifies_only_in_its_analysis():
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    assert "GermAnalysis" in {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert _uses_outside_class(tree, ANALYSIS_ONLY, "GermAnalysis") == []


# The definitions in src that no command reaches, each with its reason.
UNREACHED = {
    "typecalc._candidates": "the type searches' stream curve by curve; tests compare "
                            "_best_contact with it, and it keeps the imports of the curve "
                            "streams that bench/spans.py wraps (ROADMAP item 19)",
    "germ._ps_candidates": "ps_search's stream curve by curve; tests compare ps_search with it, "
                           "and it keeps the imports that bench/spans.py wraps (item 19)",
    "search.monomial_curves": "a curve stream that bench/micro.py times and bench/spans.py "
                              "wraps (item 19)",
    "search.cancellation_scan_curves": "a curve stream that bench/micro.py times and "
                                       "bench/spans.py wraps (item 19)",
    "fdb.filtered_expansion": "the paper's filtered expansion, checked by test_acceptance; "
                              "fdb-verify is to run it (item 14)",
    "fdb.FilteredExpansion": "the result of fdb.filtered_expansion (item 14)",
    "fdb.MultiplicityMismatchError": "raised by fdb.filtered_expansion (item 14)",
}


def _names_read(nodes) -> set[str]:
    """Every name that nodes read: names, attributes and imported names."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _unreached_definitions() -> set[str]:
    """The module.name and module.Class.method of src that the names read
    from cli.main and from the statements that run at import (not the
    imports) do not reach.  A reached class brings its bases, decorators,
    class-level statements and dunder methods; any other method is reached
    when its name is read anywhere reached."""
    defs, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((qual, [node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                dunders = [m for m in methods if m.name.startswith("__") and m.name.endswith("__")]
                body = [*node.bases, *node.keywords, *node.decorator_list, *dunders,
                        *(stmt for stmt in node.body if stmt not in methods)]
                defs.setdefault(node.name, []).append((qual, body))
                for m in methods:
                    if m not in dunders:
                        defs.setdefault(m.name, []).append((f"{qual}.{m.name}", [m]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    reached, seen = set(), set()
    todo = _names_read(roots) | {"main"}
    while todo:
        name = todo.pop()
        seen.add(name)
        for qual, body in defs.get(name, ()):
            reached.add(qual)
            todo |= _names_read(body) - seen
    return {qual for entries in defs.values() for qual, _body in entries} - reached


def test_every_definition_is_reached_from_a_command():
    assert _unreached_definitions() == set(UNREACHED)
