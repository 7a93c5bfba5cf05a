"""Checks on the library's source text itself, and on the names that tools
outside the package look up in it."""

import ast
from collections import Counter
import importlib
from pathlib import Path
import runpy

import ptop
import ptop.errors


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so behaviour must never hang on one.
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_library_raises_only_its_own_errors():
    # Callers catch PtopError; a built-in exception raised by the library
    # would escape them, and the CLI would print a traceback.  A bare
    # re-raise is allowed.
    own = {
        name
        for name, obj in vars(ptop.errors).items()
        if isinstance(obj, type) and obj.__module__ == ptop.errors.__name__
    }
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in own):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_name_the_benchmark_tracer_patches_resolves():
    # benchmarks/spans.py wraps public names by namespace; a renamed or
    # moved name would only surface in a traced benchmark run.
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"))
    missing = [
        f"{namespace}.{name}"
        for namespace, name, _ in spans["PATCHED"]
        if not hasattr(importlib.import_module(namespace), name)
    ]
    assert spans["PATCHED"] and missing == []


def test_unused_imports_are_names_the_benchmark_tracer_patches():
    # An import kept unused with `# noqa: F401` is there only for
    # benchmarks/spans.py to patch; once PATCHED drops its (module, name)
    # pair, the import must go too.
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"))
    patched = {(namespace, name) for namespace, name, _ in spans["PATCHED"]}
    kept = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept += [
                    (f"ptop.{path.stem}", alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert kept and set(kept) <= patched, sorted(set(kept) - patched)


def test_library_modules_use_every_name_they_import():
    # No linter runs on this repo, so a name left behind by a refactor would
    # stay imported for good.  __init__.py re-exports by importing, and a
    # line marked `# noqa: F401` is a patch target of the benchmark tracer.
    unused = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_every_library_definition_is_exported_or_used():
    # A trim that drops a public name can leave behind the private helpers
    # only it called, and no linter runs here to notice.  So each module-level
    # def or class is exported by __init__.py or referenced in the package
    # outside its own body.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(ptop.__file__).parent.glob("*.py"))
    }

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    exported = set(names(trees.pop("__init__.py")))
    used = Counter(name for tree in trees.values() for name in names(tree))
    dead = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and used[node.name] == Counter(names(node))[node.name]
    ]
    assert dead == []


def test_every_private_parameter_is_passed():
    # A defaulted parameter of a private module-level function that no call in
    # the package passes only ever takes its default: dead code that the
    # function's readers must still reason about.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(ptop.__file__).parent.glob("*.py"))
    ]
    defaulted = []  # (function, parameter, position, or None for keyword-only)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                defaulted += [(node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
                defaulted += [
                    (node.name, a.arg, None)
                    for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None
                ]
    passed = set()  # (function, parameter) pairs that some call passes
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            for name, param, position in defaulted:
                if name == func and (
                    spread
                    or any(k.arg == param for k in call.keywords)
                    or (position is not None and len(call.args) > position)
                ):
                    passed.add((name, param))
    assert defaulted and [f"{name}({param})" for name, param, _ in defaulted if (name, param) not in passed] == []


def test_only_core_turns_a_table_into_an_array():
    # core keeps one read-only float64 array per table (WeightTable._array);
    # a module converting `.table` itself would pay for the conversion on
    # every call and hold a second copy.
    converters = {"asarray", "array", "fromiter"}
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and node.func.attr in converters
            ):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(a, ast.Attribute) and a.attr == "table" for a in args):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_spaces_are_made_by_one_constructor():
    # Every PSpace the library hands out is valid by construction and is made
    # by core._pspace, which converts the result once and calls no PSpace(...):
    # that call would convert the table a second time in __post_init__, and
    # decide the axioms again.
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "PSpace"
        ]
    assert offenders == []


def test_messages_name_values_through_one_namer():
    # masks._name is the one way a message names a value: repr, and for a
    # number too long to print, hex or a placeholder.  A conversion such as
    # {x!r} in an f-string would be a second way, and repr or str of a Fraction
    # past the digit limit raises ValueError, which would leak from the raise.
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.conversion != -1
        ]
    assert offenders == []


def test_one_function_reads_mask_families_into_a_buffer():
    # core._mark is the one reader of mask families: another module importing
    # `array` or calling np.frombuffer, or another core function doing so,
    # would be a second reader, with its own fallback and error wording.
    readers = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id == "array")
                    or (isinstance(node.func, ast.Attribute) and node.func.attr == "frombuffer")
                ):
                    readers.append(f"{path.stem}.{func.name}")
        if path.name != "core.py":
            readers += [
                f"{path.stem}:{node.lineno} imports array"
                for node in ast.walk(tree)
                if (isinstance(node, ast.Import) and any(a.name == "array" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "array")
            ]
    assert sorted(set(readers)) == ["core._mark"]


def test_one_function_compares_families_with_their_closure():
    # core._first_defect is the one decision whether boolean family rows are
    # topologies; the generator's two callers only build closures.  Another
    # caller of _closure would be a second decision, with its own pass over
    # rows the mask reader has already read.
    callers = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_closure"
                ]
    assert sorted(set(callers)) == ["core._first_defect", "generate._chain", "generate.topology_closure"]


def test_one_function_chooses_between_listing_and_deciding():
    # core._scan decides whether to list a table undecided or to decide it
    # first; the CLI reaches core's private names through it alone, and the
    # decision itself is called only there and at the checkpoint.
    private = []
    callers = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "cli.py":
            private += [
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "core"
                for alias in node.names
                if alias.name.startswith("_")
            ]
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_decide"
                ]
    assert private == ["_scan"]
    assert sorted(callers) == ["core._check_axioms", "core._scan"]


def test_library_reads_no_environment():
    # The library's behaviour depends on its arguments alone: no environment
    # variable sets a cap or an option, so the suite and the benchmark give the
    # same results whatever the caller's shell exports.
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0], *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found = [name for name in names if name in ("os", "environ", "getenv")]
            offenders += [f"{path.name}:{node.lineno} {name}" for name in found]
    assert offenders == []


def test_library_never_calls_np_unique():
    # The first np.unique call in a process imports numpy.ma: 9.5-15 ms on a
    # shared 2-core VM, which every CLI run would pay.  Equal values are
    # grouped by one stable argsort instead (levels.decompose, fileio._formatted).
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "unique"
        ]
    assert offenders == []
