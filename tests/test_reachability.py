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
import textwrap
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



# --------------------------------------------------------------- parameters
#
# Every optional parameter (a defaulted positional or keyword-only
# argument, or a defaulted dataclass field) of a public function, method or
# class ``__init__`` in ``src/repro`` must be passed by some call site
# outside ``tests/``: in ``src/`` itself or in an entry-point file. The
# walk is the same AST-only one, and calls resolve by name: ``f(...)`` and
# ``obj.f(...)`` reach every ``def f`` and every class ``f``;
# ``cls(...)``, ``type(self)(...)`` and ``super().__init__(...)`` reach the
# enclosing class or its bases; ``partial(f, ...)`` is a call of ``f``, and
# ``run_spmd(f, n, args=(...))`` a call of ``f(comm, ...)``.
#
# A pass is by keyword, by position, or through a ``**`` spread. A spread
# passes only the names it visibly carries: the keys of a dict literal or a
# ``dict(...)`` call, the keys a local dict is built or updated with, and,
# for a dict the forwarder itself receives (its ``**kwargs``, a dict
# parameter, or a ``self.`` attribute set from one), whatever its callers
# put in. A spread of anything else passes nothing.

# Why a parameter may stay settable although no entry point sets it.
INJECTION = "injection seam"  # clock, now, registry, sink, out, argv, faults
TEST_SCALE = "test scale"  # sizes, seeds and repeats of bench/ and data/
KERNEL = "kernel seam"  # backend, chunk_size
DEPLOYMENT = "deployment setting"  # hosts, paths, client retry and tenant
PAPER = "paper hyperparameter"  # named in PAPER.md
CATEGORIES = {INJECTION, TEST_SCALE, KERNEL, DEPLOYMENT, PAPER}

# "module.qualname(param)" -> (category, one-line reason)
PARAM_ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "repro.baselines.parallel_kmeans.ParallelKMeans.__init__(init)":
        (PAPER, "k-means++ seeding of the parallel k-means comparator (PAPER.md §1)"),
    "repro.bench.ablations.run_ablation_bootstrap(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_bootstrap(n_points)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_bootstrap(repeats)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.bench.ablations.run_ablation_bootstrap(trials)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.bench.ablations.run_ablation_nrp(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_nrp(n_points)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_nrp(repeats)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.bench.ablations.run_ablation_partitioning(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_partitioning(n_points)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_partitioning(repeats)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.bench.ablations.run_ablation_smoother(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_smoother(n_points)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.ablations.run_ablation_smoother(repeats)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.bench.experiments_proteins.run_fig3(dbscan_max_frames)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.experiments_proteins.run_fig3(seed)":
        (TEST_SCALE, "experiment seed"),
    "repro.bench.experiments_proteins.run_fig4(seed)":
        (TEST_SCALE, "experiment seed"),
    "repro.bench.experiments_proteins.run_table3(scale)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.experiments_proteins.run_table3(seed)":
        (TEST_SCALE, "experiment seed"),
    "repro.bench.experiments_synthetic.run_table2(dbscan_max_points)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.experiments_synthetic.run_table2(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.experiments_synthetic.run_table2(rank_steps)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.scaling.run_scaling(fixed_m)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.scaling.run_scaling(fixed_n)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.scaling.run_scaling(m_values)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.scaling.run_scaling(n_values)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.bench.scaling.run_scaling(repeats)":
        (TEST_SCALE, "repeat count; tests run it small"),
    "repro.cli.main(argv)":
        (INJECTION, "argv: tests and perfbench drive the CLI in-process"),
    "repro.comm.faults.FaultPlan.__init__(jitter)":
        (INJECTION, "fault plan: the faults chaos tests inject into an SPMD run"),
    "repro.comm.faults.FaultPlan.parse(seed)":
        (INJECTION, "fault plan: the faults chaos tests inject into an SPMD run"),
    "repro.comm.faults.KillRank.__init__(event)":
        (INJECTION, "fault plan: the faults chaos tests inject into an SPMD run"),
    "repro.comm.faults.KillRank.__init__(mode)":
        (INJECTION, "fault plan: the faults chaos tests inject into an SPMD run"),
    "repro.core.distributed.keybin2_spmd(collapse)":
        (PAPER, "as KeyBin2's: KS-test collapse of uninformative dimensions (PAPER.md §1 step 4)"),
    "repro.core.distributed.keybin2_spmd(min_cut_prominence)":
        (PAPER, "as KeyBin2's: valley depth that makes a cut (PAPER.md §1 step 4)"),
    "repro.core.distributed.keybin2_spmd(min_support_bins)":
        (PAPER, "as KeyBin2's: occupied bins a dimension needs to survive collapse (PAPER.md §1 step 4)"),
    "repro.core.distributed.keybin2_spmd(n_components)":
        (PAPER, "as KeyBin2's: N_rp, when not 1.5·log N (PAPER.md §1 step 1)"),
    "repro.core.distributed.keybin2_spmd(projection)":
        (PAPER, "as KeyBin2's: kind of random projection (PAPER.md §1 step 1)"),
    "repro.core.distributed.keybin2_spmd(projection_factor)":
        (PAPER, "as KeyBin2's: the 1.5 of N_rp = 1.5·log N (PAPER.md §1 step 1)"),
    "repro.core.distributed.keybin2_spmd(range_margin)":
        (PAPER, "as KeyBin2's: margin of the binning range [r_min, r_max] (PAPER.md §1 step 2)"),
    "repro.core.distributed.keybin2_spmd(smoother)":
        (PAPER, "as KeyBin2's: histogram smoothing before the cut search (PAPER.md §1 step 4)"),
    "repro.core.distributed.keybin2_spmd(uniform_threshold)":
        (PAPER, "as KeyBin2's: KS statistic below which a dimension collapses (PAPER.md §1 step 4)"),
    "repro.core.drift.DriftResponder.__init__(publish_to)":
        (INJECTION, "registry: the model store refreshed models are published to"),
    "repro.core.keybin1.KeyBin1.__init__(density_threshold)":
        (PAPER, "KeyBin1's density-threshold heuristic (PAPER.md §1 step 4)"),
    "repro.core.keybin1.KeyBin1.__init__(range_margin)":
        (PAPER, "margin of the binning range [r_min, r_max] (PAPER.md §1 step 2)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(collapse)":
        (PAPER, "as KeyBin2's: KS-test collapse of uninformative dimensions (PAPER.md §1 step 4)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(min_cut_prominence)":
        (PAPER, "as KeyBin2's: valley depth that makes a cut (PAPER.md §1 step 4)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(min_support_bins)":
        (PAPER, "as KeyBin2's: occupied bins a dimension needs to survive collapse (PAPER.md §1 step 4)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(n_components)":
        (PAPER, "as KeyBin2's: N_rp, when not 1.5·log N (PAPER.md §1 step 1)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(projection)":
        (PAPER, "as KeyBin2's: kind of random projection (PAPER.md §1 step 1)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(projection_factor)":
        (PAPER, "as KeyBin2's: the 1.5 of N_rp = 1.5·log N (PAPER.md §1 step 1)"),
    "repro.core.streaming.StreamingKeyBin2.__init__(uniform_threshold)":
        (PAPER, "as KeyBin2's: KS statistic below which a dimension collapses (PAPER.md §1 step 4)"),
    "repro.data.correlated.correlated_clusters(n_clusters)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.data.correlated.correlated_clusters(n_dims)":
        (TEST_SCALE, "workload size; tests run it small"),
    "repro.fleet.journal.RolloutJournal.__init__(crash_after)":
        (INJECTION, "fault seam: crash a rollout at a journal record boundary"),
    "repro.fleet.quotas.TenantQuotas.__init__(clock)":
        (INJECTION, "clock: deterministic time in tests"),
    "repro.fleet.replica.ReplicaSupervisor.__init__(clock)":
        (INJECTION, "clock: deterministic time in tests"),
    "repro.fleet.replica.ReplicaSupervisor.__init__(host)":
        (DEPLOYMENT, "bind address of every replica"),
    "repro.insitu.checkpoint.CheckpointManager.__init__(keep)":
        (DEPLOYMENT, "checkpoint rounds kept on the checkpoint path per rank"),
    "repro.kernels.fused.fused_bin_points(backend)":
        (KERNEL, "backend: kernel tests hold every backend to the same output"),
    "repro.kernels.fused.fused_bin_points(chunk_size)":
        (KERNEL, "chunk_size: kernel tests check results do not depend on chunking"),
    "repro.kernels.fused.projected_bounds(backend)":
        (KERNEL, "backend: kernel tests hold every backend to the same output"),
    "repro.kernels.fused.projected_bounds(chunk_size)":
        (KERNEL, "chunk_size: kernel tests check results do not depend on chunking"),
    "repro.obs.collector.MetricsCollector.poll_once(now)":
        (INJECTION, "now: deterministic time in tests"),
    "repro.obs.dashboard.render_dashboard(now)":
        (INJECTION, "now: deterministic time in tests"),
    "repro.obs.dashboard.run_dashboard(out)":
        (INJECTION, "out: the stream frames are written to"),
    "repro.obs.reqtrace.configure_tracer(sink)":
        (INJECTION, "sink: an in-memory span sink tests read back"),
    "repro.obs.trace.PhaseTracer.__init__(registry)":
        (INJECTION, "registry: the metrics registry spans record into"),
    "repro.serve.admission.AdmissionController.__init__(clock)":
        (INJECTION, "clock: deterministic time in tests"),
    "repro.serve.admission.CircuitBreaker.__init__(clock)":
        (INJECTION, "clock: deterministic time in tests"),
    "repro.serve.admission.RetryBudget.__init__(clock)":
        (INJECTION, "clock: deterministic time in tests"),
    "repro.serve.admission.resolve_deadline(now)":
        (INJECTION, "now: deterministic time in tests"),
    "repro.serve.client.AsyncServeClient.predict(tenant)":
        (DEPLOYMENT, "the tenant a caller's requests are metered as"),
    "repro.serve.client.ServeClient.__init__(retries)":
        (DEPLOYMENT, "reconnect attempts a caller's client makes per idempotent request"),
    "repro.serve.client.ServeClient.__init__(retry_budget)":
        (INJECTION, "a RetryBudget shared by many clients of one process"),
    "repro.serve.client.ServeClient.predict(tenant)":
        (DEPLOYMENT, "the tenant a caller's requests are metered as"),
    "repro.serve.stats.ServeStats.__init__(registry)":
        (INJECTION, "registry: the metrics registry serve counters live in"),
}


def _name(node: ast.AST) -> str:
    """The terminal name of ``a``, ``a.b`` or ``a.b(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


class _Def:
    """One callable's parameters, as a call site sees them."""

    def __init__(self, mod: str, qualname: str, public: bool, pos: List[str],
                 optional: List[str], kwonly: List[str], kwarg: "str | None",
                 node: "ast.AST | None") -> None:
        self.mod, self.qualname, self.public = mod, qualname, public
        self.pos, self.optional, self.kwarg = pos, optional, kwarg
        self.params = set(pos) | set(kwonly)
        self.node = node

    @classmethod
    def function(cls, mod: str, node, method: bool, qualname: str, public: bool) -> "_Def":
        a = node.args
        pos = a.posonlyargs + a.args
        if method and not any(_name(d) == "staticmethod" for d in node.decorator_list):
            pos = pos[1:]  # self / cls
        optional = [p.arg for p in pos[len(pos) - len(a.defaults):]] if a.defaults else []
        optional += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        return cls(mod, qualname, public, [p.arg for p in pos], optional,
                   [k.arg for k in a.kwonlyargs], a.kwarg.arg if a.kwarg else None, node)

    @classmethod
    def dataclass(cls, mod: str, klass: ast.ClassDef, public: bool) -> "_Def":
        pos, optional = [], []
        for stmt in klass.body:
            if (not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name)
                    or "ClassVar" in ast.unparse(stmt.annotation)):
                continue
            default = stmt.value is not None
            if isinstance(stmt.value, ast.Call) and _name(stmt.value) == "field":
                kws = {k.arg: k.value for k in stmt.value.keywords}
                if getattr(kws.get("init"), "value", True) is False:
                    continue
                default = "default" in kws or "default_factory" in kws
            pos.append(stmt.target.id)
            if default:
                optional.append(stmt.target.id)
        return cls(mod, klass.name + ".__init__", public, pos, optional, [], None, None)

    def label(self, param: str) -> str:
        return f"{self.mod}.{self.qualname}({param})"


Key = Tuple[object, ...]


class _ParamAudit:
    """Resolve every call in ``sources`` and record what each callable is passed."""

    def __init__(self, sources: Dict[str, ast.Module]) -> None:
        self.defs: List[_Def] = []
        self._by_name: Dict[str, List[_Def]] = {}
        self._classes: Dict[str, List[ast.ClassDef]] = {}
        self._init: Dict[int, _Def] = {}
        self._def_of: Dict[int, _Def] = {}
        self._flows: List[Tuple[Key, Set[str], Set[Key]]] = []
        self._positions: Dict[int, int] = {}
        for mod, tree in sources.items():
            self._collect(mod, tree, None, "", True)
        for tree in sources.values():
            self._scan(tree, tree, None, None)
        self.passed = self._resolve()

    # -- definitions --------------------------------------------------------
    def _collect(self, mod: str, node: ast.AST, klass, prefix: str, public: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pub = public and (child.name == "__init__" or not child.name.startswith("_"))
                d = _Def.function(mod, child, klass is not None, prefix + child.name, pub)
                self._def_of[id(child)] = d
                self.defs.append(d)
                if child.name == "__init__" and klass is not None:
                    self._init[id(klass)] = d
                else:
                    self._by_name.setdefault(child.name, []).append(d)
                self._collect(mod, child, None, prefix + child.name + ".<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                self._classes.setdefault(child.name, []).append(child)
                pub = public and klass is None and not child.name.startswith("_")
                self._collect(mod, child, child, prefix + child.name + ".", pub)
                if id(child) not in self._init and any(
                        _name(d) == "dataclass" for d in child.decorator_list):
                    self._init[id(child)] = _Def.dataclass(mod, child, pub)
                    self.defs.append(self._init[id(child)])
            else:
                self._collect(mod, child, klass, prefix, public)

    def _inits(self, klass: ast.ClassDef) -> List[_Def]:
        """The ``__init__`` a call of ``klass`` runs: its own, else its bases'."""
        if id(klass) in self._init:
            return [self._init[id(klass)]]
        return self._base_inits(klass)

    def _base_inits(self, klass: "ast.ClassDef | None") -> List[_Def]:
        if klass is None:
            return []
        return [d for base in klass.bases for d in self._class_inits(_name(base))]

    def _class_inits(self, name: str) -> List[_Def]:
        return [d for k in self._classes.get(name, []) for d in self._inits(k)]

    # -- calls --------------------------------------------------------------
    def _scan(self, node: ast.AST, scope: ast.AST, fdef: "_Def | None", klass) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan(child, child, self._def_of[id(child)], klass)
                continue
            if isinstance(child, ast.ClassDef):
                self._scan(child, scope, fdef, child)
                continue
            if isinstance(child, ast.Call):
                self._call(child, scope, fdef, klass)
            elif isinstance(child, ast.Assign) and klass is not None:
                for t in child.targets:
                    if isinstance(t, ast.Attribute) and _name(t.value) == "self":
                        self._flow(("attr", id(klass), t.attr),
                                   self._spread(child.value, scope, fdef, klass))
            self._scan(child, scope, fdef, klass)

    def _targets(self, func: ast.AST, klass) -> Tuple[List[_Def], int]:
        """The callables ``func(...)`` may run, and how many leading
        positional arguments the call spends on ``self``."""
        if isinstance(func, ast.Name):
            if func.id == "cls" and klass is not None:
                return self._inits(klass), 0
            functions = [d for d in self._by_name.get(func.id, []) if "." not in d.qualname
                         or ".<locals>." in d.qualname]
            return functions + self._class_inits(func.id), 0
        if isinstance(func, ast.Attribute):
            if func.attr != "__init__":
                return self._by_name.get(func.attr, []) + self._class_inits(func.attr), 0
            if isinstance(func.value, ast.Call) and _name(func.value) == "super":
                return self._base_inits(klass), 0
            return self._class_inits(_name(func.value)), 1
        if isinstance(func, ast.Call) and _name(func) == "type" and klass is not None:
            return self._inits(klass), 0
        return [], 0

    def _call(self, call: ast.Call, scope: ast.AST, fdef: "_Def | None", klass) -> None:
        func, args, keywords = call.func, list(call.args), call.keywords
        if _name(func) == "partial" and args:
            func, args = args[0], args[1:]
        elif _name(func) == "run_spmd" and args:
            spread = {k.arg: k.value for k in keywords}.get("args")
            self._pass(args[0], [ast.Constant(None)] + list(getattr(spread, "elts", [])),
                       [], scope, fdef, klass)
        self._pass(func, args, keywords, scope, fdef, klass)

    def _pass(self, func: ast.AST, args: List[ast.AST], keywords: List[ast.keyword],
              scope: ast.AST, fdef: "_Def | None", klass) -> None:
        targets, shift = self._targets(func, klass)
        if not targets:
            return
        positional: List[ast.AST] = []
        for arg in args[shift:]:
            if isinstance(arg, ast.Starred):
                break
            positional.append(arg)
        carried = [self._spread(a, scope, fdef, klass) for a in positional]
        kw_names: Set[str] = set()
        kw_sources: Set[Key] = set()
        by_keyword = []
        for kw in keywords:
            spread = self._spread(kw.value, scope, fdef, klass)
            if kw.arg is None:
                kw_names |= spread[0]
                kw_sources |= spread[1]
            else:
                kw_names.add(kw.arg)
                by_keyword.append((kw.arg, spread))
        for d in targets:
            self._positions[id(d)] = max(self._positions.get(id(d), 0), len(positional))
            self._flow(("kw", id(d)), (kw_names, kw_sources))
            for param, spread in zip(d.pos, carried):
                self._flow(("arg", id(d), param), spread)
            for param, spread in by_keyword:
                self._flow(("arg", id(d), param), spread)

    def _flow(self, sink: Key, spread: Tuple[Set[str], Set[Key]]) -> None:
        if spread[0] or spread[1]:
            self._flows.append((sink, spread[0], spread[1]))

    def _spread(self, expr: ast.AST, scope: ast.AST, fdef: "_Def | None", klass,
                seen: "Set[str] | None" = None) -> Tuple[Set[str], Set[Key]]:
        """The names ``**expr`` visibly carries, and the dicts it takes them from."""
        seen = set() if seen is None else seen
        names: Set[str] = set()
        sources: Set[Key] = set()

        def add(sub: ast.AST) -> None:
            n, s = self._spread(sub, scope, fdef, klass, seen)
            names.update(n)
            sources.update(s)

        if isinstance(expr, ast.Dict):
            for key, value in zip(expr.keys, expr.values):
                if key is None:
                    add(value)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    names.add(key.value)
        elif isinstance(expr, ast.Call) and _name(expr) in ("dict", "copy"):
            names.update(k.arg for k in expr.keywords if k.arg is not None)
            for sub in [k.value for k in expr.keywords if k.arg is None] + list(expr.args):
                add(sub)
            if isinstance(expr.func, ast.Attribute) and _name(expr.func.value) != "copy":
                add(expr.func.value)  # ``d.copy()``
        elif (isinstance(expr, ast.Attribute) and klass is not None
              and _name(expr.value) == "self"):
            sources.add(("attr", id(klass), expr.attr))
        elif isinstance(expr, ast.Name) and expr.id not in seen:
            seen.add(expr.id)
            if fdef is not None and expr.id == fdef.kwarg:
                sources.add(("kw", id(fdef)))
            elif fdef is not None and expr.id in fdef.params:
                sources.add(("arg", id(fdef), expr.id))
            for node in ast.walk(scope):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for t in targets:
                        if _name(t) == expr.id and isinstance(t, ast.Name) and node.value:
                            add(node.value)
                        elif (isinstance(t, ast.Subscript) and _name(t.value) == expr.id
                              and isinstance(t.slice, ast.Constant)):
                            names.add(str(t.slice.value))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and _name(node.func.value) == expr.id):
                    if node.func.attr == "update":
                        names.update(k.arg for k in node.keywords if k.arg is not None)
                        for sub in list(node.args) + [k.value for k in node.keywords
                                                      if k.arg is None]:
                            add(sub)
                    elif node.func.attr == "setdefault" and node.args:
                        names.add(str(getattr(node.args[0], "value", "")))
        return names, sources

    def _resolve(self) -> Dict[int, Set[str]]:
        """Fixpoint over the flows: what each callable is passed."""
        value: Dict[Key, Set[str]] = {}
        changed = True
        while changed:
            changed = False
            for sink, names, sources in self._flows:
                got = set(names)
                for src in sources:
                    got |= value.get(src, set())
                have = value.setdefault(sink, set())
                if not got <= have:
                    have |= got
                    changed = True
        return {id(d): (value.get(("kw", id(d)), set()) & d.params)
                | set(d.pos[:self._positions.get(id(d), 0)]) for d in self.defs}

    def unpassed(self, modules: Set[str]) -> List[str]:
        return sorted(d.label(p) for d in self.defs if d.public and d.mod in modules
                      for p in d.optional if p not in self.passed[id(d)])


def _audit_sources() -> Dict[str, ast.Module]:
    sources = {mod: _parse(path) for mod, path in MODULES.items()}
    for path in _entry_files():
        sources[str(path.relative_to(ROOT))] = _parse(path)
    return sources


def unpassed_parameters() -> List[str]:
    audit = _ParamAudit(_audit_sources())
    return [p for p in audit.unpassed(set(MODULES)) if p not in PARAM_ALLOWLIST]


def test_every_optional_parameter_is_passed_or_allowlisted():
    unpassed = unpassed_parameters()
    assert not unpassed, (
        "optional parameters no call site outside tests/ passes (make each a "
        "module constant, or delete it with the code path it selects; tests "
        "monkeypatch the constant): " + ", ".join(unpassed))


def test_allowlist_entries_are_categorized_and_still_needed():
    audit = _ParamAudit(_audit_sources())
    unpassed = set(audit.unpassed(set(MODULES)))
    for label, (category, reason) in PARAM_ALLOWLIST.items():
        assert category in CATEGORIES, f"{label}: unknown category {category!r}"
        assert reason.strip(), f"{label}: no reason"
        assert label in unpassed, (
            f"{label} is passed by an entry point, or is no longer an "
            "optional parameter: drop it from the allowlist")


def _audit_of(**sources: str) -> _ParamAudit:
    """Audit of in-memory modules; ``lib`` holds the callables."""
    return _ParamAudit({mod: ast.parse(textwrap.dedent(src))
                        for mod, src in sources.items()})


LIB = """
    from dataclasses import dataclass, field

    def f(x, a=1, b=2, *, c=3):
        pass

    class Box:
        def __init__(self, x, size=1, *, color="red"):
            pass

        def put(self, item, slot=0):
            pass

    @dataclass
    class Spec:
        n: int
        width: int = 4
        seen: list = field(default_factory=list, init=False)
"""


class TestParameterResolution:
    def test_keyword_and_positional_passes(self):
        audit = _audit_of(lib=LIB, app="""
            f(0, 5)                  # b unpassed: a by position only
            Box(1, color="blue")     # size unpassed
            Box(1).put("x", 3)       # slot by position, after self
            Spec(2, width=8)         # dataclass field; init=False excluded
        """)
        assert audit.unpassed({"lib"}) == [
            "lib.Box.__init__(size)", "lib.f(b)", "lib.f(c)"]

    def test_unpassed_parameter_of_any_public_callable_is_named(self):
        audit = _audit_of(lib=LIB, app="f(0)")
        assert "lib.f(a)" in audit.unpassed({"lib"})
        assert "lib.Box.put(slot)" in audit.unpassed({"lib"})

    def test_bare_kwargs_forward_passes_only_what_callers_send(self):
        audit = _audit_of(lib=LIB, app="""
            def make(**kwargs):
                return Box(0, **kwargs)

            def wrap(*args, **opts):
                return make(**opts)

            wrap(color="green")
            f(0, **{"a": 1}, **dict(c=2))
        """)
        assert audit.unpassed({"lib"}) == [
            "lib.Box.__init__(size)", "lib.Box.put(slot)",
            "lib.Spec.__init__(width)", "lib.f(b)"]

    def test_forwarded_and_built_dicts(self):
        audit = _audit_of(lib=LIB, app="""
            def entry(comm, params):
                return f(comm, **params)

            class Job:
                def __init__(self, **opts):
                    self.opts = dict(opts)

                def run(self):
                    kw = {"a": 1}
                    kw.update(self.opts)
                    kw["b"] = 2
                    return f(0, **kw)

            Job(c=3)
            run_spmd(entry, 2, args=({"a": 1},))
            opaque = load()
            Box(0, **opaque)         # passes nothing: nothing visible
        """)
        assert audit.unpassed({"lib"}) == [
            "lib.Box.__init__(color)", "lib.Box.__init__(size)",
            "lib.Box.put(slot)", "lib.Spec.__init__(width)"]

    def test_class_calls_reach_init_through_cls_super_and_bases(self):
        audit = _audit_of(lib="""
            class Base:
                def __init__(self, x, size=1, tag=None):
                    pass

            class Child(Base):
                def __init__(self, x, **kw):
                    super().__init__(x, **kw)

                @classmethod
                def make(cls):
                    return cls(0, tag="t")

            class Leaf(Base):
                pass
        """, app="Leaf(1, 2)")
        assert audit.unpassed({"lib"}) == []
