"""Source hygiene for src/contactps, checked with the stdlib `ast` rather
than an external linter.

- No module imports a name it never uses.  A name counts as used when the
  module reads it anywhere or lists it in `__all__` (the re-exports of
  `__init__.py`).
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
- Every function parameter is read in the function's body.  Dunder
  methods, the command handlers in `report._COMMANDS` (they share one
  `(source, options)` signature) and the click callbacks of `cli.py` (click
  passes every declared option) are exempt.
- Every `(module, attr)` that the traced benchmark (`bench/spans.py`)
  wraps resolves to a callable, so a refactor that drops one of those
  imports fails here and not only in `bench/run.py --trace 1`.
"""

import ast
import importlib
import pathlib

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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert found == {}


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


def _command_handlers(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_COMMANDS" for t in node.targets
        ):
            return {v.id for v in node.value.values}
    return set()


def _is_click_callback(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in fn.decorator_list)


def _unread_parameters(tree: ast.Module) -> list[str]:
    exempt = _command_handlers(tree)
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{owner}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")
                        or name in exempt or _is_click_callback(child)):
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
