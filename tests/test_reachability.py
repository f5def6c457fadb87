"""Static reachability guard: no module and no public definition of the
package may sit where no surface reaches it.

The surfaces are the CLI (``__main__``), the suite and the other pipelines
(``pipelines/{validate,queries,curate,predict}.py``), ``bench.py``, the
driver contract (``__ray_entry__.py``), the suite benchmark
(``suitebench/*.py``) and the package ``__init__``. The check reads source
with ``ast`` only: it imports nothing and starts no Ray. Re-exports in a
subpackage ``__init__.py`` do not count as reach, so a module kept alive
only by its package's ``__all__`` fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "anomalydetection_ray"
NAME = PKG.name

SURFACE_FILES = [
    PKG / "__init__.py",
    PKG / "__main__.py",
    *(PKG / "pipelines" / f"{m}.py" for m in ("validate", "queries", "curate", "predict")),
    ROOT / "bench.py",
    ROOT / "__ray_entry__.py",
    *sorted((ROOT / "suitebench").glob("*.py")),
]

# Unreached code that stays, with its tests, for one more change: deleting
# every unreached definition at once retires about a hundred tests, so the
# deletion is split in two. ROADMAP #3 names these as the next to go. An
# entry that a surface starts to reach must leave the list.
KEPT_MODULES = {f"{NAME}.pipelines.sweep", f"{NAME}.sources.ingest"}
KEPT_DEFINITIONS = {
    "bloom_prefiltered_join", "hash_join",  # functions/relational.py
    "ewma", "cusum_flags", "cohort_retention",  # functions/temporal.py
    "explode_list_column", "unpivot_long", "distributed_pca",  # functions/vector.py
    "run_sweep",  # pipelines/sweep.py
    "read_csv_table", "read_jsonl_table",  # sources/ingest.py
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(ROOT).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_subpackage_init(path: Path) -> bool:
    return path.name == "__init__.py" and path.parent != PKG


PACKAGE_FILES = sorted(PKG.rglob("*.py"))
MODULES = {_module_name(p): p for p in PACKAGE_FILES}
_TREES: dict[Path, ast.Module] = {}


def _tree(path: Path) -> ast.Module:
    if path not in _TREES:
        _TREES[path] = ast.parse(path.read_text(), filename=str(path))
    return _TREES[path]


def _reexports(pkg_module: str) -> dict[str, str]:
    """Name -> defining module for the ``from .x import name`` lines of a
    subpackage ``__init__``: importing that name from the package reaches
    the defining module, not everything the ``__init__`` imports."""
    out: dict[str, str] = {}
    path = MODULES.get(pkg_module)
    if path is None or path.name != "__init__.py":
        return out
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            base = _resolve_from(pkg_module, node, is_package=True)
            for alias in node.names:
                out[alias.asname or alias.name] = base
    return out


def _resolve_from(current: str, node: ast.ImportFrom, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    parts = current.split(".")
    if not is_package:
        parts = parts[:-1]
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _imported_modules(path: Path) -> set[str]:
    """Package modules one file imports, anywhere in it (the package
    imports lazily inside functions)."""
    current = _module_name(path) if path.is_relative_to(PKG) else path.stem
    is_package = path.name == "__init__.py"
    found: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(current, node, is_package)
            if base not in MODULES:
                continue
            found.add(base)
            exported = _reexports(base)
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                if sub in MODULES:
                    found.add(sub)
                elif alias.name in exported and exported[alias.name] in MODULES:
                    found.add(exported[alias.name])
    return found


def _reached_modules() -> set[str]:
    seen: set[str] = set()
    todo = [f for f in SURFACE_FILES if f.exists()]
    while todo:
        path = todo.pop()
        for mod in _imported_modules(path):
            if mod not in seen:
                seen.add(mod)
                if not _is_subpackage_init(MODULES[mod]):
                    todo.append(MODULES[mod])
    seen |= {_module_name(f) for f in SURFACE_FILES if f.exists() and f.is_relative_to(PKG)}
    # a package is imported whenever one of its modules is
    for mod in list(seen):
        parts = mod.split(".")
        for i in range(1, len(parts)):
            seen.add(".".join(parts[:i]))
    return seen


def test_every_module_is_reached_from_a_surface():
    unreached = set(MODULES) - _reached_modules()
    assert unreached == KEPT_MODULES, (
        f"modules no surface imports: {sorted(unreached - KEPT_MODULES)}; "
        f"kept modules now reached: {sorted(KEPT_MODULES - unreached)}"
    )


def _references(path: Path) -> list[tuple[str, str | None]]:
    """(referenced name, enclosing top-level definition or None) for every
    Name, Attribute, imported name and identifier-like string constant
    (``getattr`` dispatch) in a file."""
    out: list[tuple[str, str | None]] = []
    for top in _tree(path).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.append((node.name.rsplit(".", 1)[-1], owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                out.append((node.value, owner))
    return out


def _is_registered(node: ast.AST) -> bool:
    """``@register(...)`` queries are reached through the registry."""
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "register":
            return True
    return False


def test_every_public_definition_is_referenced():
    sources = [p for p in PACKAGE_FILES if not _is_subpackage_init(p)]
    sources += [f for f in SURFACE_FILES if f.exists() and not f.is_relative_to(PKG)]
    refs: dict[str, set[tuple[Path, str | None]]] = {}
    for path in sources:
        for name, owner in _references(path):
            refs.setdefault(name, set()).add((path, owner))
    orphans, kept = [], set()
    for path in PACKAGE_FILES:
        for top in _tree(path).body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if top.name.startswith("_") or _is_registered(top):
                continue
            users = refs.get(top.name, set()) - {(path, top.name)}
            if users:
                continue
            if top.name in KEPT_DEFINITIONS:
                kept.add(top.name)
            else:
                orphans.append(f"{path.relative_to(ROOT)}:{top.lineno} {top.name}")
    assert not orphans, "public definitions nothing references:\n" + "\n".join(orphans)
    assert kept == KEPT_DEFINITIONS, f"kept definitions now referenced: {sorted(KEPT_DEFINITIONS - kept)}"
