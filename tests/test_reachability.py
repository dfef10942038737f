"""Every ``src/repro`` module is reached from an entry point, not only from tests.

The walk is static (AST only, nothing is imported). It starts from
``repro.cli`` and every file under ``examples/``, ``perfbench/`` and
``benchmarks/``. From a reached module or entry-point file, each import
reaches the imported module. A package ``__init__`` is different: its
``from ... import name`` re-exports reach their source module only when a
reached file imports ``name`` from the package (``from pkg import
name``), so a re-export alone cannot keep a module alive. Attribute access
through a package (``import pkg``, then ``pkg.name``) is not followed;
such a use shows up here as an unreached module, never as a missed one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("examples", "perfbench", "benchmarks")
ENTRY_MODULES = ("repro.cli",)

# Reached without a static import of the module itself.
ALLOWLIST = {
    # Registers itself under the name "numba" when the ``repro.kernels``
    # package imports it; ``get_backend`` then finds it by that name.
    "repro.kernels.numba_backend",
    "repro.__main__",  # ``python -m repro``
    "repro._version",  # only re-exported, as ``repro.__version__``
}


def _src_modules() -> Dict[str, Path]:
    mods = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        mods[".".join(parts)] = path
    return mods


MODULES = _src_modules()


def _is_package(mod: str) -> bool:
    return MODULES[mod].name == "__init__.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reexports(mod: str) -> Dict[str, Tuple[str, str]]:
    """Map each name a package ``__init__`` imports from ``repro`` to its source."""
    out = {}
    for node in ast.walk(_parse(MODULES[mod])):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


class _Walk:
    def __init__(self) -> None:
        self.reached: Set[str] = set()
        self._used: Set[Tuple[str, str]] = set()
        self._todo: List[str] = []

    def reach(self, mod: str) -> None:
        """Mark ``mod`` and its parent packages reached."""
        parts = mod.split(".")
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            if name in MODULES and name not in self.reached:
                self.reached.add(name)
                self._todo.append(name)

    def use(self, mod: str, name: str) -> None:
        """A reached file uses ``mod.name``; follow it to where it is defined."""
        if mod not in MODULES or (mod, name) in self._used:
            return
        self._used.add((mod, name))
        self.reach(mod)
        sub = f"{mod}.{name}"
        if sub in MODULES:
            self.reach(sub)
        elif _is_package(mod):
            src = _reexports(mod).get(name)
            if src is not None:
                self.use(*src)

    def scan(self, tree: ast.Module) -> None:
        """Follow every ``repro`` import in a file."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                self.reach(node.module)
                for alias in node.names:
                    self.use(node.module, alias.name)

    def run(self) -> None:
        while self._todo:
            mod = self._todo.pop()
            # A package's re-exports count only through use() above.
            if not _is_package(mod):
                self.scan(_parse(MODULES[mod]))


def _entry_files() -> List[Path]:
    files = []
    for d in ENTRY_DIRS:
        files.extend(sorted((ROOT / d).rglob("*.py")))
    return files


def unreached_modules() -> List[str]:
    walk = _Walk()
    for mod in ENTRY_MODULES:
        walk.reach(mod)
    for path in _entry_files():
        walk.scan(_parse(path))
    walk.run()
    return sorted(set(MODULES) - walk.reached - ALLOWLIST)


def test_entry_points_exist():
    assert all(m in MODULES for m in ENTRY_MODULES)
    assert all(m in MODULES for m in ALLOWLIST)
    assert _entry_files()


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = unreached_modules()
    assert not unreached, (
        "src modules that no entry point reaches (only tests use them; "
        "delete them or move them under tests/): " + ", ".join(unreached))


def test_src_never_imports_tests():
    offenders = []
    for mod, path in MODULES.items():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "tests" in roots:
                offenders.append(f"{mod}:{node.lineno}")
    assert not offenders, "src modules import from tests: " + ", ".join(offenders)
