"""Static reachability guard: no module, no definition and no defaulted
parameter of the package may sit where no surface reaches it.

The surfaces are the CLI (``__main__``), the suite and the other pipelines
(``pipelines/{validate,queries,curate,predict}.py``), ``bench.py``, the
driver contract (``__ray_entry__.py``), the suite benchmark
(``suitebench/*.py``) and the package ``__init__``. The checks read source
with ``ast`` only: they import nothing and start no Ray. Re-exports in a
subpackage ``__init__.py`` do not count as reach, so a module kept alive
only by its package's ``__all__`` fails here.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "anomalydetection_ray"

SURFACE_FILES = [
    PKG / "__init__.py",
    PKG / "__main__.py",
    *(PKG / "pipelines" / f"{m}.py" for m in ("validate", "queries", "curate", "predict")),
    ROOT / "bench.py",
    ROOT / "__ray_entry__.py",
    *sorted((ROOT / "suitebench").glob("*.py")),
]

# Defaulted parameters that only tests pass, as "callee.param". Most are
# budget knobs a plan-equivalence test turns down to force the large
# (shuffle) rung on a small input; the rest pin a documented option whose
# non-default branch only a test selects. An entry leaves the list once a
# surface passes it or the parameter is gone.
TEST_ONLY_PARAMETERS: dict[str, str] = {
    # budget knobs that force the large rung on a small input
    "exact_dedup.driver_merge_max_bytes": "plan equivalence, driver vs shuffle tail",
    "dedup_against_snapshot.snapshot_size_hint_bytes": "forces the distributed snapshot rung",
    "fd_violations.broadcast_max_candidates": "forces the semi-join recovery plan",
    "fd_violations.driver_merge_max_bytes": "forces the shuffled candidate pass",
    "frequency_filter.driver_max_keys": "forces the shuffle membership plan",
    "line_dedup.driver_max_drops": "forces the distributed apply plan",
    "minhash_lsh_dedup.driver_max_edges": "plan equivalence, driver vs distributed clustering",
    "minhash_lsh_dedup_verified.driver_max_edges": "forces the distributed components rung",
    "minhash_lsh_dedup_verified.driver_merge_max_bytes": "forces the stage-graph plan",
    "neardup_pairs.driver_max_pairs": "plan equivalence, driver vs distributed verify",
    "simhash_dedup.driver_max_edges": "plan equivalence, driver vs distributed clustering",
    "dup_span_stats.driver_max_hashes": "forces the distributed span join",
    "strip_dup_spans.driver_max_hashes": "forces the distributed span join",
    "skew_join.max_hot_right_rows": "forces the dimension-skew fallback",
    "with_global_rank.driver_max_bytes": "forces the shuffle-join rank plan",
    "knn_outlier_scores.max_bytes": "forces the over-budget error",
    "decontaminate.max_bench_ngrams": "forces the corpus-sized bench error",
    "write_partitioned.max_rows_per_file": "forces file rollover on a small table",
    # options whose non-default branch only a test selects
    "main.argv": "tests drive the CLI in process",
    "AutoencoderScoreStage.load_hook": "counts snapshot loads per actor",
    "bm25_score_batch.k1": "BM25 parameters against the reference formula",
    "bm25_score_batch.b": "BM25 parameters against the reference formula",
    "char_trigram_lm.min_count": "vocabulary pruning",
    "decontaminate.flag_col": "flag mode instead of drop",
    "decontaminate.fp_rate": "Bloom-mode false-positive target",
    "dedup_against_snapshot.snapshot_text_col": "snapshot with a differently named text column",
    "dsir_weights.n_buckets": "reference weights at a small bucket count",
    "dup_span_stats.min_docs": "document-frequency threshold",
    "fixed_count_sample.unit_fn": "md5 unit hash ties",
    "funnel_counts.within": "conversion window",
    "isolation_forest_scores.seed": "seeded forest",
    "ivf_topk_cosine.train_sample": "sample smaller than a cluster",
    "lag_lead.leads": "LEAD columns",
    "largest_remainder_allocation.redistribute": "allocation without water-filling",
    "line_dedup.normalize": "line normalization modes",
    "mahalanobis_scores.ridge": "exact parity with numpy at zero ridge",
    "minhash_lsh_dedup_verified.collapse_exact": "plan with exact duplicates kept",
    "normalize_text_batch.fix_mojibake": "normalization without the mojibake table",
    "normalize_text_batch.form": "NFD normalization",
    "robust_outlier_flags.stats": "precomputed statistics",
    "robust_outlier_flags.z_col": "output-name collision guard",
    "stratified_split.seed": "seeded split",
    "weighted_fixed_count_sample.seed": "seed sensitivity",
    "window_rank.ntile": "NTILE buckets",
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
    assert not unreached, f"modules no surface imports: {sorted(unreached)}"


# --------------------------------------------------------------- definitions


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(referenced name, enclosing top-level definition or None) for every
    Name, Attribute, imported name and identifier-like string constant
    (``getattr`` dispatch) in a module."""
    out: list[tuple[str, str | None]] = []
    for top in tree.body:
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


def _callee(node: ast.AST | None) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _is_registered(node: ast.AST) -> bool:
    """``@register(...)`` queries are reached through the registry."""
    for dec in getattr(node, "decorator_list", []):
        if _callee(dec.func if isinstance(dec, ast.Call) else dec) == "register":
            return True
    return False


def unreached_definitions(package: dict[str, ast.Module], surfaces: dict[str, ast.Module]) -> list[str]:
    """Top-level functions and classes of ``package`` (public and private)
    that no surface reaches, as ``"file:line name"``.

    Reach is a fixpoint over names: it starts from every reference in a
    ``surfaces`` module, from the module-level code of the package (it
    runs on import) and from ``@register`` queries, and a reached name
    adds the references inside each definition of that name. A name only
    dead code refers to therefore stays unreached."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    owned: dict[str, set[str]] = {}
    todo: list[str] = []
    for mod, tree in package.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(top.name, []).append((mod, top))
                if _is_registered(top):
                    todo.append(top.name)
        for name, owner in _references(tree):
            if owner is None:
                todo.append(name)
            else:
                owned.setdefault(owner, set()).add(name)
    for tree in surfaces.values():
        todo += [name for name, _ in _references(tree)]
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += owned.get(name, ())
    unreached = sorted(
        (mod, node.lineno, name)
        for name, sites in defs.items()
        if name not in reached and not name.startswith("__")
        for mod, node in sites
    )
    return [f"{mod}:{line} {name}" for mod, line, name in unreached]


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _package_trees() -> dict[str, ast.Module]:
    return {_rel(p): _tree(p) for p in PACKAGE_FILES if not _is_subpackage_init(p)}


def _surface_trees() -> dict[str, ast.Module]:
    return {_rel(f): _tree(f) for f in SURFACE_FILES if f.exists() and not f.is_relative_to(PKG)}


def test_every_public_definition_is_referenced():
    """Every definition, public or a module-level private helper, is
    reached transitively from a surface."""
    orphans = unreached_definitions(_package_trees(), _surface_trees())
    assert not orphans, "definitions no surface reaches:\n" + "\n".join(orphans)


def test_definition_reach_is_transitive():
    package = _parse({
        "m.py": """
            def used():
                return helper()

            def helper():
                return 1

            def dead():
                return dead_helper()

            def dead_helper():
                return 2
        """,
    })
    surfaces = _parse({"s.py": "from m import used\nused()\n"})
    assert unreached_definitions(package, surfaces) == ["m.py:8 dead", "m.py:11 dead_helper"]


# ---------------------------------------------------------------- parameters


def _defaulted(args: ast.arguments, skip_self: bool) -> list[tuple[str, int | None]]:
    """(name, position or None for keyword-only) of the parameters that
    have a default."""
    pos = (args.posonlyargs + args.args)[1 if skip_self else 0:]
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _signatures(package: dict[str, ast.Module]):
    """(file, line, callee, defaulted params) for every public function
    and every public class ``__init__``."""
    for mod, tree in package.items():
        for top in tree.body:
            if getattr(top, "name", "_").startswith("_"):
                continue
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield mod, top.lineno, top.name, _defaulted(top.args, False)
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                        yield mod, node.lineno, top.name, _defaulted(node.args, True)


# Ray Data methods that call the function they apply with the row or
# batch alone (plus ``fn_args``/``fn_kwargs``/``fn_constructor_*``)
_RAY_MAPS = {"map_batches", "map", "flat_map", "filter"}


class _Passes:
    """What the calls in a set of modules pass, per callee name."""

    def __init__(self, trees: dict[str, ast.Module]):
        self.keywords: dict[str, set[str]] = {}
        self.positions: dict[str, int] = {}
        self.everything: set[str] = set()
        for tree in trees.values():
            classes = [t.name for t in tree.body if isinstance(t, ast.ClassDef)]
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        self._call(node, top)
                    elif isinstance(node, ast.Dict):
                        # a kwargs dict built for a later ``map_batches(Cls,
                        # **kw)``: its constructor keys go to the module's classes
                        for key, value in zip(node.keys, node.values):
                            if _const(key) == "fn_constructor_kwargs" and _literal_keys(value) is not None:
                                for cls in classes:
                                    self._credit(cls, 0, _literal_keys(value))

    def _credit(self, callee: str | None, n_positional: int, keywords) -> None:
        if callee is not None:
            self.positions[callee] = max(self.positions.get(callee, 0), n_positional)
            self.keywords.setdefault(callee, set()).update(keywords)

    def _call(self, node: ast.Call, top: ast.AST) -> None:
        callee, args = _callee(node.func), node.args
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        elif callee == "cls" and isinstance(top, ast.ClassDef):
            callee = top.name
        keywords = {k.arg for k in node.keywords if k.arg}
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
            self.everything.add(callee)
        self._credit(callee, len(args), keywords)
        target = args[0] if args else next((k.value for k in node.keywords if k.arg == "fn"), None)
        # a callable handed over as a value (``unit_fn=md5_unit_hash``, the
        # stage class of a ``**kwargs`` forwarder) is called by code that
        # cannot be matched by name, so it counts as passed everything;
        # a Ray Data map's own function gets only the batch
        for value in args + [k.value for k in node.keywords]:
            if isinstance(value, (ast.Name, ast.Attribute)) and not (callee in _RAY_MAPS and value is target):
                self.everything.add(_callee(value))
        for k in node.keywords:
            if k.arg in ("fn_kwargs", "fn_constructor_kwargs"):
                keys = _literal_keys(k.value)
                if keys is None:
                    self.everything.add(_callee(target))
                else:
                    self._credit(_callee(target), 0, keys)
            elif k.arg in ("fn_args", "fn_constructor_args"):
                if isinstance(k.value, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in k.value.elts):
                    self._credit(_callee(target), len(k.value.elts), ())
                else:
                    self.everything.add(_callee(target))

    def passes(self, callee: str, param: str, position: int | None) -> bool:
        return (
            callee in self.everything
            or param in self.keywords.get(callee, ())
            or (position is not None and position < self.positions.get(callee, 0))
        )


def _const(node: ast.AST | None):
    return node.value if isinstance(node, ast.Constant) else None


def _literal_keys(node: ast.AST) -> set[str] | None:
    if isinstance(node, ast.Dict) and all(isinstance(_const(k), str) for k in node.keys):
        return {k.value for k in node.keys}
    return None


def unpassed_parameters(package: dict[str, ast.Module], callers: dict[str, ast.Module]) -> dict[str, str]:
    """``"callee.param" -> "file:line"`` for each defaulted parameter of a
    public function or class ``__init__`` in ``package`` that no call in
    ``callers`` passes. A call passes a parameter when it names it as a
    keyword, reaches its position, splats ``*args``/``**kwargs``, names it
    as a key of a ``fn_kwargs=``/``fn_constructor_kwargs=`` dict literal
    (a non-literal one passes every parameter of the callee), fills it
    through ``fn_args=``/``fn_constructor_args=`` or ``functools.partial``,
    or hands the callee over as a value to anything but a Ray Data map.
    Callees match by name."""
    passes = _Passes(callers)
    return {
        f"{name}.{param}": f"{mod}:{line}"
        for mod, line, name, params in _signatures(package)
        for param, position in params
        if not passes.passes(name, param, position)
    }


def test_every_defaulted_parameter_is_passed():
    package = _package_trees()
    live = unpassed_parameters(package, {**package, **_surface_trees()})
    tests = {_rel(p): _tree(p) for p in sorted((ROOT / "tests").glob("*.py"))}
    untested = unpassed_parameters(package, {**package, **_surface_trees(), **tests})
    unlisted = sorted(f"{live[k]} {k}" for k in set(live) - set(TEST_ONLY_PARAMETERS))
    assert not unlisted, "defaulted parameters no surface passes:\n" + "\n".join(unlisted)
    stale = sorted(set(TEST_ONLY_PARAMETERS) - set(live))
    assert not stale, f"listed parameters a surface now passes, or gone: {stale}"
    no_test = sorted(set(TEST_ONLY_PARAMETERS) & set(untested))
    assert not no_test, f"listed parameters no test passes: {no_test}"


def _parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {name: ast.parse(textwrap.dedent(src)) for name, src in sources.items()}


def test_parameter_check_flags_an_unpassed_parameter():
    package = _parse({"m.py": "def f(x, knob=3):\n    return x * knob\n"})
    assert unpassed_parameters(package, _parse({"s.py": "f(1)\n"})) == {"f.knob": "m.py:1"}
    assert unpassed_parameters(package, _parse({"s.py": "f(1, knob=2)\n"})) == {}


def test_parameter_check_counts_indirect_passes():
    package = _parse({
        "m.py": """
            class Stage:
                def __init__(self, col, out_col="out", emit=False):
                    self.col = col

            def g(a, b=1, c=2):
                return a + b + c

            def h(ds, fn, size=1, **kwargs):
                return ds.map_batches(fn, fn_constructor_kwargs=kwargs)

            class Model:
                def __init__(self, k=8):
                    self.k = k

                @classmethod
                def load(cls, k):
                    return cls(k)
        """,
    })
    callers = _parse({
        "s.py": """
            from functools import partial
            ds.map_batches(Stage, fn_constructor_kwargs={"col": "x", "out_col": "y"})
            ds.map_batches(Stage, fn_constructor_args=("x", "y", True))
            g(1, 2)
            partial(g, c=3)
            h(ds, Stage, size=2)
        """,
    })
    assert unpassed_parameters(package, {**package, **callers}) == {}
    # a non-literal kwargs dict passes everything; so does a splat
    callers = _parse({"s.py": "ds.map_batches(Stage, fn_constructor_kwargs=kw)\ng(*xs)\nh(ds, f, **kw)\n"})
    assert unpassed_parameters(package, {**package, **callers}) == {}
