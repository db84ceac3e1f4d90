"""Every module under ``src/repro/`` is reached from some non-test file.

The library is what the runtimes, the experiments, the examples and the
benchmark run; a module that only its own tests import is surface
nobody runs, and it goes.  The scan reads imports from the AST of every
non-test file under ``src/``, ``benchmarks/``, ``examples/``,
``perfbench/`` and ``scripts/``, and:

* resolves ``from pkg import Name`` through ``pkg/__init__.py`` to the
  module that defines ``Name``, so a package re-export alone is not a
  use;
* does not count a package ``__init__`` importing its own submodules;
* counts a string constant that names a module as an import of it (the
  runtime table in ``repro.ports``, perfbench's span boundaries);
* counts the ``python -m`` targets of the CI workflow as imports.

This file also holds the rule that nothing outside ``src/repro/bench/``
imports ``repro.bench``: the package is the two CI perf gates, reached
only as ``python -m`` targets, so that it stays deletable in one change
once the repo benchmark carries them.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Directories whose non-test files count as users of the library.
USER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: Directories scanned for imports of ``repro.bench``.
BENCH_SCAN_DIRS = ("src", "tests", "benchmarks", "examples", "scripts", "perfbench")

#: Modules allowed to go unreached, with the reason for each.
EXEMPT = {
    "repro.__main__": "entry point of `python -m repro`; nothing imports it",
    "repro.core.invariants": "online checker whose fate ROADMAP 7(a) decides",
}


def _is_test_file(path: Path) -> bool:
    return (
        "tests" in path.relative_to(ROOT).parts
        or path.name.startswith("test_")
        or path.name == "conftest.py"
    )


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _library() -> dict[str, Path]:
    """Dotted name -> file, for every module under ``src/repro/``."""
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _user_files() -> list[Path]:
    files = []
    for top in USER_DIRS:
        files += [p for p in sorted((ROOT / top).rglob("*.py")) if not _is_test_file(p)]
    return files


def _absolute(node: ast.ImportFrom, module: str | None, is_package: bool) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    base = (module or "").split(".")
    if not is_package:
        base.pop()
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class _Graph:
    """Which library modules each file's imports reach."""

    def __init__(self, library: dict[str, Path]) -> None:
        self.library = library
        self._trees: dict[Path, ast.Module] = {}

    def tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), str(path))
        return self._trees[path]

    def with_ancestors(self, name: str) -> set[str]:
        parts = name.split(".")
        return {
            ".".join(parts[:i])
            for i in range(1, len(parts) + 1)
            if ".".join(parts[:i]) in self.library
        }

    def resolve(self, module: str, name: str, seen: frozenset = frozenset()) -> set[str]:
        """The modules ``from module import name`` uses."""
        if f"{module}.{name}" in self.library:
            return self.with_ancestors(f"{module}.{name}")
        used = self.with_ancestors(module)
        path = self.library.get(module)
        if path is None or path.name != "__init__.py" or (module, name) in seen:
            return used
        seen = seen | {(module, name)}
        for node in self.tree(path).body:
            if isinstance(node, ast.ImportFrom):
                source = _absolute(node, module, True)
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return used | self.resolve(source, alias.name, seen)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname == name:
                        return used | self.with_ancestors(alias.name)
        return used

    def uses(self, path: Path) -> set[str]:
        """Library modules the file at ``path`` reaches, itself excluded."""
        module = _module_name(path) if path.is_relative_to(SRC) else None
        is_package = path.name == "__init__.py"
        used: set[str] = set()
        for node in ast.walk(self.tree(path)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    used |= self.with_ancestors(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, module, is_package)
                for alias in node.names:
                    used |= self.resolve(source, alias.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in self.library:
                    used |= self.with_ancestors(node.value)
        used.discard(module)
        if is_package:
            used = {m for m in used if not m.startswith(f"{module}.")}
        return used


def _ci_module_targets() -> set[str]:
    return set(re.findall(r"python3?(?: -X \w+)* -m ([\w.]+)", CI_WORKFLOW.read_text()))


def unreached_modules() -> list[str]:
    """Library modules no non-test file reaches, exemptions included."""
    library = _library()
    graph = _Graph(library)
    reached: set[str] = set()
    for target in _ci_module_targets():
        reached |= graph.with_ancestors(target)
    for path in _user_files():
        reached |= graph.uses(path)
    return sorted(m for m in library if m not in reached)


def test_every_library_module_is_reached_from_a_non_test_file():
    unreached = [
        m
        for m in unreached_modules()
        if not any(fnmatch.fnmatchcase(m, pattern) for pattern in EXEMPT)
    ]
    assert not unreached, (
        f"modules under src/repro/ that no runtime, experiment, example, "
        f"benchmark or script reaches: {unreached}; give each a caller or "
        f"delete it (a package re-export is not a caller)"
    )


def test_every_exemption_still_covers_an_unreached_module():
    unreached = unreached_modules()
    stale = [p for p in EXEMPT if not fnmatch.filter(unreached, p)]
    assert not stale, f"exemptions no longer needed, drop them: {stale}"


def _imports_bench(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
            if node.module == "repro":
                names += [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "repro.bench" or n.startswith("repro.bench.") for n in names):
            return True
    return False


def test_nothing_outside_the_bench_package_imports_repro_bench():
    bench = SRC / "repro" / "bench"
    offenders = [
        str(path.relative_to(ROOT))
        for top in BENCH_SCAN_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if not path.is_relative_to(bench) and _imports_bench(ast.parse(path.read_text()))
    ]
    assert not offenders, (
        f"repro.bench is imported outside src/repro/bench/: {offenders}; the"
        f" package holds only the CI perf gates and must stay deletable whole"
    )
