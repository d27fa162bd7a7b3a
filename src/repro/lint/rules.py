"""The REP rule catalogue: the reproduction's invariants, one checker each.

Every rule here encodes an invariant that protects the bit-for-bit
reproducibility of Tables 2.1/2.2 (or the liveness of the serving tier) and
that was violated at least once during PRs 2–5:

REP001
    Every :func:`functools.lru_cache` must be *bounded* (an explicit
    ``maxsize``) and *registered* with
    :func:`repro.engine.caches.register_cache` in its defining module, so
    the ``/stats`` cache audit can enumerate, snapshot and clear it.  PR 2
    found formerly unbounded caches across ``gf/`` and ``core/bounds.py``;
    this PR found every bounded one still invisible to the audit.

REP002
    No unseeded ``np.random.default_rng()`` and no legacy
    ``np.random.*`` global-state calls.  Every random stream must descend
    from an explicit seed or generator — the sweep determinism contract
    (identical rows for any worker count / batch width) is only as strong
    as its weakest stream.  ``network/faults.py`` carried unseeded
    fallbacks until this PR.

REP003
    Lazy shared-state initialisation (``if self._x is None: self._x = ...``)
    in server-reachable packages must happen under a held lock, or a cold
    table built concurrently can be observed half-initialised.  PR 5 locked
    ``topology/base.py``; this PR found ``words/codec.py`` and
    ``topology/kautz.py`` still bare.

REP004
    The :class:`~repro.engine.executor.KernelExecutor` is the *sole* owner
    of kernel launches and gather tables: outside the executor (and the
    modules that define/build the tables) nobody may call the ``msbfs``
    kernel entry points or touch ``successor_table``-family attributes.
    ``sweep.py`` carried its own dispatch heuristic until PR 5; this rule
    keeps measurement paths from diverging again.

REP005
    No blocking calls (``time.sleep``, synchronous subprocess/socket/file
    I/O) inside ``async def`` bodies under ``repro/server/`` — one blocked
    event loop stalls every coalesced request in flight.

REP006
    Raw ``assert`` is forbidden in ``src/`` (stripped under ``python -O``;
    a production server launched with ``-O`` would silently drop the
    checks).  Use the typed exceptions of :mod:`repro.exceptions`.

REP007
    Server/engine code must not hand-roll metric aggregation: accumulating
    ``time.perf_counter()`` deltas into ad-hoc instance attributes
    (``self._total += elapsed``, ``self._latencies.append(elapsed)``)
    bypasses :mod:`repro.obs` — the aggregate is unbounded, invisible to
    ``/metrics``, and usually lock-free.  PR 7 replaced three such
    accumulators (gateway latency list, batcher wait list, service latency
    totals) with registry-backed counters/histograms; this rule keeps new
    ones from growing back.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .engine import FileContext, Finding, Rule

__all__ = [
    "all_rules",
    "BoundedRegisteredCacheRule",
    "SeededRngRule",
    "LockedLazyInitRule",
    "ExecutorBypassRule",
    "BlockingInAsyncRule",
    "RawAssertRule",
    "AdHocMetricsRule",
]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> str | None:
    return _dotted(call.func)


def _enclosing_function(ctx: FileContext, node: ast.AST) -> ast.AST | None:
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return anc
    return None


class BoundedRegisteredCacheRule(Rule):
    """REP001 — ``lru_cache`` must be bounded and registered with the audit."""

    code = "REP001"
    name = "bounded-registered-cache"
    rationale = (
        "functools.lru_cache must set an explicit maxsize and be registered "
        "via caches.register_cache so the /stats audit sees it"
    )

    _CACHE_DECORATORS = {"lru_cache", "functools.lru_cache"}
    _UNBOUNDED_DECORATORS = {"cache", "functools.cache"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        registered = self._audited_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                yield from self._check_decorator(ctx, node, deco, registered)

    def _audited_names(self, ctx: FileContext) -> set[str]:
        """Function names passed to a ``register_cache(name, fn)`` call."""
        names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _call_name(node)
            if callee is None or callee.split(".")[-1] != "register_cache":
                continue
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                names.add(node.args[1].id)
        return names

    def _check_decorator(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        deco: ast.AST,
        registered: set[str],
    ) -> Iterator[Finding]:
        name = _dotted(deco) if not isinstance(deco, ast.Call) else _call_name(deco)
        if name in self._UNBOUNDED_DECORATORS:
            yield self.finding(
                ctx, deco,
                f"functools.cache on {fn.name!r} is unbounded; use "
                "lru_cache(maxsize=...) and register it via caches.register_cache",
            )
            return
        if name not in self._CACHE_DECORATORS:
            return
        if not isinstance(deco, ast.Call):
            # bare @lru_cache: maxsize defaults to 128 (bounded), but an
            # explicit size documents the intended budget — and the paren-
            # less form is one edit away from @cache.
            yield self.finding(
                ctx, deco,
                f"lru_cache on {fn.name!r} must set an explicit maxsize "
                "(bare @lru_cache hides the bound)",
            )
        else:
            maxsize = self._maxsize(deco)
            if maxsize is _MISSING:
                yield self.finding(
                    ctx, deco,
                    f"lru_cache on {fn.name!r} must set an explicit maxsize",
                )
            elif maxsize is None:
                yield self.finding(
                    ctx, deco,
                    f"lru_cache(maxsize=None) on {fn.name!r} is unbounded; "
                    "resident processes must bound every cache",
                )
        if fn.name not in registered:
            yield self.finding(
                ctx, fn,
                f"lru_cache {fn.name!r} is not registered with "
                "caches.register_cache; the /stats audit cannot see it",
            )

    @staticmethod
    def _maxsize(deco: ast.Call) -> object:
        if deco.args:
            first = deco.args[0]
            return first.value if isinstance(first, ast.Constant) else _BOUNDED
        for kw in deco.keywords:
            if kw.arg == "maxsize":
                return kw.value.value if isinstance(kw.value, ast.Constant) else _BOUNDED
        return _MISSING


#: sentinels for :meth:`BoundedRegisteredCacheRule._maxsize`
_MISSING = object()
_BOUNDED = object()  # non-constant expression: assume deliberately bounded


class SeededRngRule(Rule):
    """REP002 — every random stream must descend from an explicit seed."""

    code = "REP002"
    name = "seeded-rng"
    rationale = (
        "no unseeded np.random.default_rng() and no legacy np.random.* "
        "global-state calls: sweep determinism is per-stream"
    )

    #: modules where ambient randomness is acceptable (none today; the
    #: entry stays so future demo-only modules can be sanctioned visibly).
    sanctioned: tuple[str, ...] = ()

    _LEGACY_SAFE = {
        # np.random.X that construct or type explicit streams
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self.sanctioned and ctx.in_path(*self.sanctioned):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            if name in ("np.random.default_rng", "numpy.random.default_rng",
                        "default_rng"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "unseeded np.random.default_rng(): pass an explicit "
                        "seed or require a Generator from the caller",
                    )
                continue
            for prefix in ("np.random.", "numpy.random."):
                if name.startswith(prefix):
                    attr = name[len(prefix):]
                    if "." not in attr and attr not in self._LEGACY_SAFE:
                        yield self.finding(
                            ctx, node,
                            f"legacy global-state call np.random.{attr}(): "
                            "use an explicit np.random.Generator",
                        )
                    break


class LockedLazyInitRule(Rule):
    """REP003 — lazy shared-state init must happen under a held lock."""

    code = "REP003"
    name = "locked-lazy-init"
    rationale = (
        "lazy `if self._x is None: self._x = ...` builds on server-reachable "
        "shared objects must be lock-guarded"
    )

    #: packages whose instances are shared across server threads (topology
    #: registry singletons, process-wide codecs, the engine/server layers).
    applies_to: tuple[str, ...] = (
        "repro/topology/",
        "repro/words/",
        "repro/engine/",
        "repro/server/",
        "repro/obs/",
        "repro/churn/",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_path(*self.applies_to):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If):
                continue
            attr = self._lazy_test_attr(node.test)
            if attr is None:
                continue
            for assign in self._self_assignments(node, attr):
                if not self._under_lock(ctx, assign):
                    yield self.finding(
                        ctx, assign,
                        f"lazy initialisation of self.{attr} is not guarded "
                        "by a lock (shared instances race on cold builds)",
                    )

    @staticmethod
    def _lazy_test_attr(test: ast.AST) -> str | None:
        """``self._x`` when the test is exactly ``self._x is None``."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Attribute)
            and isinstance(test.left.value, ast.Name)
            and test.left.value.id == "self"
        ):
            return test.left.attr
        return None

    @staticmethod
    def _self_assignments(branch: ast.If, attr: str) -> Iterator[ast.AST]:
        for node in ast.walk(branch):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == attr
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield node
                    break

    @staticmethod
    def _under_lock(ctx: FileContext, node: ast.AST) -> bool:
        """True when an ancestor ``with`` acquires something lock-like."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    name = _dotted(item.context_expr) or _dotted(
                        getattr(item.context_expr, "func", ast.Constant(None))
                    )
                    if name is not None and "lock" in name.lower():
                        return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # don't credit a lock held in an *outer* function scope
                return False
        return False


class ExecutorBypassRule(Rule):
    """REP004 — only the executor may launch kernels or touch gather tables."""

    code = "REP004"
    name = "executor-bypass"
    rationale = (
        "msbfs kernel calls and gather-table access outside "
        "engine/executor.py let measurement paths diverge"
    )

    #: modules that legitimately launch kernels / build or expose tables.
    allowed: tuple[str, ...] = (
        "repro/engine/executor.py",
        "repro/graphs/msbfs.py",
        "repro/graphs/components.py",
        "repro/topology/",
        "repro/words/codec.py",
    )

    _KERNEL_CALLS = {
        "batched_root_stats",
        "pack_fault_lanes",
        "pack_mask_lanes",
        "lane_removed_mask",
        "bfs_levels_table",
    }
    _TABLE_ATTRS = {
        "successor_table",
        "predecessor_table",
        "neighbour_table",
        "predecessor_columns",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_path(*self.allowed):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name is not None and name.split(".")[-1] in self._KERNEL_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"direct kernel call {name.split('.')[-1]}() outside "
                        "engine/executor.py: route measurements through "
                        "KernelExecutor so they cannot diverge",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in self._TABLE_ATTRS
            ):
                yield self.finding(
                    ctx, node,
                    f"gather-table access .{node.attr} outside the executor/"
                    "topology layers: tables are owned by KernelExecutor",
                )


class BlockingInAsyncRule(Rule):
    """REP005 — no blocking calls inside ``async def`` under repro/server/."""

    code = "REP005"
    name = "no-blocking-in-async"
    rationale = (
        "time.sleep / synchronous subprocess, socket and file I/O inside "
        "async def stalls every request coalesced on the event loop"
    )

    applies_to: tuple[str, ...] = ("repro/server/",)

    _BLOCKING = {
        "time.sleep",
        "open",
        "io.open",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
        "http.client.HTTPConnection",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_path(*self.applies_to):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in self._BLOCKING:
                continue
            fn = _enclosing_function(ctx, node)
            if isinstance(fn, ast.AsyncFunctionDef):
                yield self.finding(
                    ctx, node,
                    f"blocking call {name}() inside async def {fn.name!r}: "
                    "use the asyncio equivalent or run_in_executor",
                )


class RawAssertRule(Rule):
    """REP006 — raw ``assert`` is forbidden in library code."""

    code = "REP006"
    name = "no-raw-assert"
    rationale = (
        "assert is stripped under python -O: enforce contracts with the "
        "typed exceptions of repro.exceptions"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "raw assert (stripped under -O): raise a typed exception "
                    "from repro.exceptions instead",
                )


class AdHocMetricsRule(Rule):
    """REP007 — no hand-rolled timing accumulators outside ``repro.obs``."""

    code = "REP007"
    name = "no-adhoc-metrics"
    rationale = (
        "perf_counter deltas accumulated into ad-hoc instance attributes "
        "bypass repro.obs: unbounded, lock-free, invisible to /metrics"
    )

    #: the layers whose aggregates must live in the metrics registry.  The
    #: registry itself (``repro/obs/``) is the one place allowed to hold
    #: raw timing state.
    applies_to: tuple[str, ...] = ("repro/server/", "repro/engine/")

    _TIMER_CALLS = {
        "time.perf_counter", "perf_counter",
        "time.perf_counter_ns", "perf_counter_ns",
        "time.monotonic", "monotonic",
        "time.time",
    }
    _SINK_METHODS = {"append", "extend", "add", "insert"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_path(*self.applies_to) or ctx.in_path("repro/obs/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    # -- per-function taint analysis -------------------------------------------
    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        nodes = list(self._own_nodes(fn))
        tainted = self._tainted_names(nodes)
        for node in nodes:
            if (
                isinstance(node, ast.AugAssign)
                and self._self_attr(node.target) is not None
                and self._expr_tainted(node.value, tainted)
            ):
                attr = self._self_attr(node.target)
                yield self.finding(
                    ctx, node,
                    f"ad-hoc timing accumulator self.{attr} += "
                    "perf_counter delta: record it in a repro.obs "
                    "Counter/Histogram instead",
                )
            elif isinstance(node, ast.Call):
                sink = self._self_sink(node)
                if sink is not None and any(
                    self._expr_tainted(arg, tainted) for arg in node.args
                ):
                    attr, method = sink
                    yield self.finding(
                        ctx, node,
                        f"ad-hoc timing reservoir self.{attr}.{method}"
                        "(perf_counter delta): use a repro.obs Histogram "
                        "(bounded sample window) instead",
                    )

    @staticmethod
    def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
        """Every node of ``fn``'s own body, not descending into nested defs."""
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _tainted_names(self, nodes: list[ast.AST]) -> set[str]:
        """Local names whose value derives from a monotonic-clock reading.

        Iterated to a fixpoint so chains like ``a = perf_counter()``;
        ``b = a - start``; ``self._x.append(b)`` resolve regardless of the
        order :func:`ast.walk` visits them.
        """
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                if not self._expr_tainted(value, tainted):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        return tainted

    def _expr_tainted(self, expr: ast.AST, tainted: set[str]) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in self._TIMER_CALLS:
                    return True
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in tainted
            ):
                return True
        return False

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        """``x`` for a ``self.x`` attribute target, else ``None``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _self_sink(self, call: ast.Call) -> tuple[str, str] | None:
        """``(attr, method)`` for ``self.attr.append(...)``-style calls."""
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._SINK_METHODS:
            return None
        attr = self._self_attr(func.value)
        return None if attr is None else (attr, func.attr)


def all_rules() -> list[Rule]:
    """The full catalogue, in code order."""
    return [
        BoundedRegisteredCacheRule(),
        SeededRngRule(),
        LockedLazyInitRule(),
        ExecutorBypassRule(),
        BlockingInAsyncRule(),
        RawAssertRule(),
        AdHocMetricsRule(),
    ]
