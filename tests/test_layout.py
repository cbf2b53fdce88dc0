"""Package layout: ntheory owns the prime table, generators does not
reach up into exactdist (which imports generators), a FiniteDist has
one exact representation, and no public function takes a parameter that
only tests would set."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import primelab
from primelab import exactdist, generators, ntheory

SRC = Path(primelab.__file__).parent
_FLAGS = re.compile(r"(?<!\w)_flags")  # _flags and _flags_view


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _words(tree: ast.AST):
    """Every identifier and string constant in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_ntheory_mentions_the_table_flags():
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if path.stem != "ntheory"
               and any(_FLAGS.search(w) for w in _words(_tree(path)))]
    assert readers == []


def test_generators_does_not_import_exactdist():
    imported = []
    for node in ast.walk(_tree(SRC / "generators.py")):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [m for m in imported if m.split(".")[-1] == "exactdist"] == []


def test_table_helpers_keep_their_old_names():
    assert exactdist.primes_upto is ntheory.primes_upto
    # bench/tracing.py patches the tester by this name
    assert generators.primality_tester is ntheory.primality_tester


def test_no_float_distribution_backend():
    """No module divides masses by operator.truediv or asks a law whether
    it is exact, and metrics binds no float (tolerance) at module level."""
    uses = [(path.name, w) for path in sorted(SRC.glob("*.py"))
            for w in _words(_tree(path)) if w in ("truediv", "is_exact")]
    tolerances = [
        ast.unparse(node) for node in _tree(SRC / "metrics.py").body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]
    assert uses == [] and tolerances == []


def test_no_test_only_parameters():
    """The caps are module constants (tests monkeypatch them), and
    harness.write_text writes a report: no public function or method
    takes `cap`, `work_cap` or `out`."""
    def python_function(obj):
        return inspect.isfunction(obj) or inspect.ismethod(obj)

    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"primelab.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn) for attr, fn
                            in inspect.getmembers(obj, python_function)
                            if not attr.startswith("_")]
            for label, fn in members:
                if not python_function(fn):
                    continue
                params = inspect.signature(fn).parameters
                found += [f"{path.stem}.{label}({p})" for p in params
                          if p in ("cap", "work_cap", "out")]
    assert found == []


# The only private names one primelab module may import from another: the
# rule that checks every integer argument, and its dataclass-field form.
_SHARED_PRIVATE = {("errors", "_bound_index"), ("errors", "_index_field")}


def test_no_private_imports_across_modules():
    """A module reaches another only through its public names, so e.g. the
    class census stays inside exactdist."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("primelab")):
                continue
            source = (node.module or "").split(".")[-1]
            found += [f"{path.stem}: {source}.{a.name}" for a in node.names
                      if a.name.startswith("_")
                      and (source, a.name) not in _SHARED_PRIVATE]
    assert found == []
