"""Package layout: ntheory owns the prime table, whose flags only
PrimeTable reads, generators does not reach up into exactdist (which
imports generators), only exactdist maps a config to its closed form, a
FiniteDist has one exact representation, no public function takes a
parameter that only tests would set, the CLI writes its output in one
place, only generators chooses how trials run, its lane engine takes
every verdict from ntheory.verdicts, whose rules are written once, and
every public function and method is called from the package or the
benchmark."""

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


def test_only_prime_table_reads_its_flags():
    """In src/, `._flags` (and `._flags_view`) is read only inside class
    PrimeTable, and the table backend of the lane engine names neither
    the prime list nor primes_upto: it reads the table's flags through
    its methods alone."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "PrimeTable"
                  for node in ast.walk(cls)}
        readers += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and _FLAGS.match(node.attr) and id(node) not in inside]
    backend = next(node for node in _tree(SRC / "ntheory.py").body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "_TableVerdicts")
    assert readers == []
    assert not {"primes", "primes_upto"} & set(_words(backend))


def test_generators_does_not_import_exactdist():
    imported = []
    for node in ast.walk(_tree(SRC / "generators.py")):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [m for m in imported if m.split(".")[-1] == "exactdist"] == []


def test_only_exactdist_maps_an_algorithm_to_a_closed_form():
    """exactdist.law alone picks the closed form of a config: no other
    module of src/ but the package's re-exports names an exact_dist_*
    function (cli and harness call law)."""
    names = [f"{path.stem}: {w}" for path in sorted(SRC.glob("*.py"))
             if path.stem not in ("exactdist", "__init__")
             for w in _words(_tree(path)) if w.startswith("exact_dist_")]
    assert names == []


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
# rule that checks every integer argument, its dataclass-field form, and
# the instance check of every typed argument.
_SHARED_PRIVATE = {("errors", "_bound_index"), ("errors", "_index_field"),
                   ("errors", "_instance_of")}


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


_WRITERS = ("write_text", "sys.stdout.write", "sys.stderr.write")


def test_cli_writes_only_in_main():
    """Each subcommand returns its payload and main writes it: every call
    that writes output lies inside main, which makes each of them."""
    tree = _tree(SRC / "cli.py")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    calls = {(ast.unparse(node.func), id(node) in in_main)
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in _WRITERS}
    assert calls == {(name, True) for name in _WRITERS}


def test_harness_leaves_the_runner_to_generators():
    """generators.trial_records alone chooses between the lane engine and
    a generate loop: harness calls no generate and names no engine
    limit, which generators keeps private."""
    tree = _tree(SRC / "harness.py")
    calls = [ast.unparse(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "generate"]
    limits = [w for w in _words(tree) if "LANE_X_LIMIT" in w]
    assert calls == [] and limits == []
    assert not hasattr(generators, "LANE_X_LIMIT")


def test_generators_leaves_the_table_to_ntheory():
    """The lane engine takes its verdicts from ntheory.verdicts:
    generators reads no `table` attribute and no PrimeTable member, and
    imports none of ntheory's table and trial-division helpers.  A table
    reaches the engine only as its policy's: neither trial_records, _Lanes
    nor verdicts takes one."""
    for func in (generators.trial_records, generators._Lanes,
                 ntheory.verdicts):
        assert "table" not in inspect.signature(func).parameters, func
    tree = _tree(SRC / "generators.py")
    members = {"table", "prime_mask", "primes", "count_leq", "is_prime"}
    helpers = {"covering_table", "table_for", "primes_upto", "trial_division"}
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in members]
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names
                if a.name in helpers]
    assert read == [] and imported == []


def test_each_verdict_rule_is_written_once():
    """ntheory._Verdicts alone writes the lane engine's verdict rules: a
    backend gives its screen, settle and optionally next_prime, and
    generators writes its lanes directly, with no _set_lanes."""
    for backend in (ntheory._TableVerdicts, ntheory._TesterVerdicts):
        assert not {"first", "ends", "holds_prime"} & vars(backend).keys()
    assert not hasattr(generators, "_set_lanes")


def test_only_the_lanes_set_the_words_per_step():
    """The words a step hands each lane follow from the width in one
    place: generators reads _LOOK only where _Lanes sets its look, so
    each step function reads the step's look or its block's width."""
    tree = _tree(SRC / "generators.py")
    lanes = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Lanes")
    sets = [node for node in ast.walk(lanes) if isinstance(node, ast.Assign)
            and [ast.unparse(t) for t in node.targets] == ["self.look"]]
    inside = {id(node) for node in ast.walk(sets[0])}
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_LOOK"
             and isinstance(node.ctx, ast.Load) and id(node) not in inside]
    assert len(sets) == 1 and reads == []


# The public calls that nothing in src/ or bench/ names, each kept for its
# reason; any other such call is deleted.
_UNCALLED_PUBLIC = {
    "parse_reports": "the documented reader of emitted reports",
    "count_ap_primes": "acceptance criteria 7 and 8 read it, and it is the "
                       "tests' independent check of the class census",
    "residue_class_primes": "acceptance criterion 7 reads it, and it is the "
                            "tests' independent check of the class census",
    "totient_partial_sum": "Phi(N): the paper's pair count F(Q) is "
                           "Phi(Q) - Phi(Q/2), which criterion 8 reads",
}


def _public_calls(tree: ast.Module | ast.ClassDef):
    """The public functions of a module or class body, and the public
    methods of its public classes."""
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.ClassDef):
            yield from _public_calls(node)
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def test_every_public_call_is_named_elsewhere():
    """Each public function and method of src/primelab is named in src/
    outside __init__.py or in bench/*.py (bench's tests aside), or is kept
    in _UNCALLED_PUBLIC with its reason, which holds only uncalled names."""
    bench = SRC.parents[1] / "bench"
    assert bench.is_dir(), (f"{bench} not found: this test reads the calls "
                            f"of bench/*.py from the checkout beside src/")
    used = set()
    for path in [*SRC.glob("*.py"), *bench.glob("*.py")]:
        if path.name != "__init__.py" and not path.name.startswith("test_"):
            used.update(_words(_tree(path)))
    public = {name for path in SRC.glob("*.py")
              for name in _public_calls(_tree(path))}
    assert sorted(public - used) == sorted(_UNCALLED_PUBLIC)
