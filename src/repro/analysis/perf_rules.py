"""Hot-path performance rules (PF001-PF009).

The JETS scaling story lives or dies in the per-event inner loops: the
kernel event loop, the store dispatch fixpoints, and the dispatcher /
aggregator message handlers sustain ~10k tasks/s only while they stay
allocation-lean.  These rules make that discipline machine-checked
instead of tribal: each pattern is a *warning* anywhere, escalated to
an *error* when the enclosing function is in the statically computed
hot set (see :mod:`.callgraph`), optionally widened by a measured
profile (``jets lint --hot-profile BENCH_profile.json``).

The rules are deliberately narrow — each trigger requires the hazard to
be demonstrably per-iteration or per-event cost (a loop-invariant copy,
a repeated attribute chain, formatting at a trace call site) so that a
clean ``src/`` stays achievable without blanketing the tree in noqa.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .callgraph import CallGraph, shared_graph
from .determinism_rules import _dotted, _imported_names
from .framework import Finding, Module, ProjectRule, register

__all__ = ["set_hot_profile", "hot_profile"]

#: Function ids from a measured profile (``--hot-profile``); unioned
#: into the hot set for the duration of one lint invocation.
_HOT_PROFILE: Optional[frozenset[str]] = None


def set_hot_profile(ids: Optional[Sequence[str]]) -> None:
    """Install (or clear, with None) the measured hot profile."""
    global _HOT_PROFILE
    _HOT_PROFILE = frozenset(ids) if ids is not None else None


def hot_profile() -> Optional[frozenset[str]]:
    return _HOT_PROFILE


_LOOPS = (ast.For, ast.AsyncFor, ast.While)


class PerfRule(ProjectRule):
    """Base for PF rules: hot-set lookup + severity escalation."""

    severity = "warning"

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        graph = shared_graph(modules)
        hot = graph.hot_set(_HOT_PROFILE)
        for module in modules:
            yield from self.check_module(module, graph, hot)

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def is_hot(
        self,
        module: Module,
        graph: CallGraph,
        hot: frozenset[str],
        node: ast.AST,
    ) -> bool:
        """Whether ``node`` sits inside a hot-set function (any
        enclosing named function counts; lambdas inherit)."""
        df = module.dataflow
        cur = df.enclosing_function(node)
        while cur is not None:
            fid = graph.id_of(cur)
            if fid is not None and fid in hot:
                return True
            cur = df.enclosing_function(cur)
        return False

    def pf_finding(
        self, module: Module, node: ast.AST, message: str, hot: bool
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity="error" if hot else "warning",
            message=message + (" [hot path]" if hot else ""),
            hot=hot,
        )


def _enclosing_loop(module: Module, node: ast.AST) -> Optional[ast.AST]:
    """The innermost loop whose *body* re-executes ``node`` each
    iteration, within the same function.

    A ``for`` loop's ``iter``/``target`` expressions evaluate once, so
    a node reached through them is attributed to the next loop out (a
    ``while`` test, by contrast, does run per iteration).  The search
    stops at a function boundary.
    """
    df = module.dataflow
    prev: ast.AST = node
    cur = df.parent.get(node)
    while cur is not None:
        if isinstance(cur, (ast.For, ast.AsyncFor)):
            if prev is not cur.iter and prev is not cur.target:
                return cur
        elif isinstance(cur, ast.While):
            return cur
        elif isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return None
        prev = cur
        cur = df.parent.get(cur)
    return None


def _names_bound_in(node: ast.AST) -> set[str]:
    """Every name bound anywhere inside ``node`` (loop targets,
    assignments, with-items, comprehension targets, func params)."""
    bound: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            bound.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(sub.name)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
    return bound


_BUILTIN_COPIES = frozenset({"list", "dict", "set", "tuple", "frozenset"})
_LAZY_REDUCERS = frozenset({"sum", "min", "max", "any", "all"})


@register
class AllocationInEventLoop(PerfRule):
    """Per-iteration allocation that a hoist or a generator removes.

    Two shapes: (a) a builtin copy — ``list(x)`` / ``dict(x)`` /
    ``set(x)`` / ``tuple(x)`` — inside a loop whose argument is not
    rebound by the loop, so the identical copy is rebuilt every
    iteration; (b) ``sum``/``min``/``max``/``any``/``all`` over a list
    comprehension, which materializes a throwaway list where a
    generator expression streams.  On the kernel event path either
    shape turns into an allocation per *event*, which is exactly the
    churn PR 5's slots/inline-heappush work removed.  Copies that are
    semantically required (snapshots of mutating state) take a
    ``# repro: noqa[PF001]`` with the reason.
    """

    id = "PF001"
    description = (
        "allocation in a per-event loop (loop-invariant copy or "
        "reducer over a list comprehension); error on the hot path"
    )
    example_bad = (
        "while self.queue:\n"
        "    for view in list(self.workers):  # same copy every pass\n"
        "        view.poll()"
    )
    example_good = (
        "views = list(self.workers)\n"
        "while self.queue:\n"
        "    for view in views:\n"
        "        view.poll()"
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        bound_cache: dict[int, set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Name):
                continue
            if (
                func.id in _LAZY_REDUCERS
                and node.args
                and isinstance(node.args[0], ast.ListComp)
            ):
                yield self.pf_finding(
                    module, node,
                    f"{func.id}() over a list comprehension "
                    "materializes a throwaway list; use a generator "
                    "expression",
                    self.is_hot(module, graph, hot, node),
                )
                continue
            if (
                func.id in _BUILTIN_COPIES
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Name)
            ):
                loop = _enclosing_loop(module, node)
                if loop is None:
                    continue
                bound = bound_cache.get(id(loop))
                if bound is None:
                    bound = bound_cache[id(loop)] = _names_bound_in(loop)
                arg = node.args[0].id
                if arg in bound or func.id in bound:
                    continue
                yield self.pf_finding(
                    module, node,
                    f"loop-invariant {func.id}({arg}) rebuilt every "
                    "iteration; hoist the copy out of the loop",
                    self.is_hot(module, graph, hot, node),
                )


def _attr_chain(node: ast.Attribute) -> Optional[tuple[str, ...]]:
    """``self.platform.trace.log`` → ("self","platform","trace","log");
    None if the chain is broken by a call/subscript or non-Name root."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return tuple(parts)


@register
class UnhoistedAttributeChain(PerfRule):
    """The same multi-step attribute chain resolved repeatedly in one
    loop.

    ``self.platform.trace.log(...)`` costs three dict lookups per call;
    executed twice (or more) per iteration of a per-event loop that is
    measurable interpreter overhead the compiler will not remove.  The
    fix is one line: bind the chain to a local before the loop
    (``log = self.platform.trace.log``).  Chains rooted at a name the
    loop rebinds are exempt (the lookup genuinely differs per
    iteration), as are chains interrupted by calls or subscripts.
    """

    id = "PF002"
    description = (
        "multi-step attribute chain resolved 2+ times per loop "
        "iteration; hoist to a local (error on the hot path)"
    )
    example_bad = (
        "while True:\n"
        "    msg = yield sock.recv()\n"
        "    self.platform.trace.log(...)\n"
        "    self.platform.trace.log(...)"
    )
    example_good = (
        "log = self.platform.trace.log\n"
        "while True:\n"
        "    msg = yield sock.recv()\n"
        "    log(...)\n"
        "    log(...)"
    )

    #: Minimum attribute links (a.b.c = 2 links) for a chain to count.
    min_links = 2

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        df = module.dataflow
        # innermost loop id -> chain -> [attribute nodes]
        per_loop: dict[int, dict[tuple[str, ...], list[ast.Attribute]]]
        per_loop = {}
        loops: dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            parent = df.parent.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue  # not the maximal chain
            chain = _attr_chain(node)
            if chain is None or len(chain) - 1 < self.min_links:
                continue
            loop = _enclosing_loop(module, node)
            if loop is None:
                continue
            loops[id(loop)] = loop
            per_loop.setdefault(id(loop), {}).setdefault(
                chain, []
            ).append(node)
        bound_cache: dict[int, set[str]] = {}
        for loop_key, chains in per_loop.items():
            loop = loops[loop_key]
            bound = bound_cache.get(loop_key)
            if bound is None:
                bound = bound_cache[loop_key] = _names_bound_in(loop)
            for chain, nodes in chains.items():
                if len(nodes) < 2 or chain[0] in bound:
                    continue
                first = min(
                    nodes, key=lambda n: (n.lineno, n.col_offset)
                )
                dotted = ".".join(chain)
                yield self.pf_finding(
                    module, first,
                    f"attribute chain '{dotted}' resolved "
                    f"{len(nodes)}x per loop iteration; bind it to a "
                    "local before the loop",
                    self.is_hot(module, graph, hot, first),
                )


def _is_trace_log_call(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "log"):
        return False
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id == "trace"
    if isinstance(recv, ast.Attribute):
        return recv.attr == "trace"
    return False


def _formatted_exprs(expr: ast.expr) -> Iterator[ast.expr]:
    """Eager string-formatting sub-expressions of a call argument."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.JoinedStr):
            if any(
                isinstance(v, ast.FormattedValue) for v in sub.values
            ):
                yield sub
        elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod):
            left = sub.left
            if isinstance(left, ast.Constant) and isinstance(
                left.value, str
            ):
                yield sub
        elif isinstance(sub, ast.Call):
            f = sub.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "format"
                and isinstance(f.value, ast.Constant)
                and isinstance(f.value.value, str)
            ):
                yield sub


@register
class FormattingAtTraceCallSite(PerfRule):
    """String formatting evaluated eagerly inside a ``trace.log`` call.

    ``trace.log`` runs once per traced event; an f-string (or ``%`` /
    ``.format``) in its arguments is formatted *before* the call, so
    the cost is paid even when every sink drops the record.  Payload
    fields should carry the raw values — the exporter renders them
    lazily, and goldens stay byte-stable because rendering is
    centralized.  This is the trace-call-site audit for the obs layer:
    on the dispatcher/aggregator event path one f-string per message is
    a measurable slice of the 10k tasks/s budget.
    """

    id = "PF003"
    description = (
        "eager string formatting (f-string/%/.format) inside a "
        "trace.log call site; error on the hot path"
    )
    example_bad = (
        'trace.log(t, "worker", "killed",\n'
        '          {"cause": f"protocol error: {kind!r}"})'
    )
    example_good = (
        'trace.log(t, "worker", "killed",\n'
        '          {"cause": "protocol error", "kind": kind})'
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_trace_log_call(node):
                continue
            args = list(node.args) + [
                kw.value for kw in node.keywords if kw.value is not None
            ]
            is_hot = self.is_hot(module, graph, hot, node)
            for arg in args:
                for bad in _formatted_exprs(arg):
                    yield self.pf_finding(
                        module, bad,
                        "string formatted eagerly at a trace.log call "
                        "site; pass raw fields and let the exporter "
                        "render",
                        is_hot,
                    )


@register
class HotClassWithoutSlots(PerfRule):
    """Instantiating a slot-less dataclass on the hot path.

    Every instance of a class without ``__slots__`` carries a per-
    instance ``__dict__`` (~56+ bytes and a dict allocation); on the
    per-event path that multiplies by the event rate.  PR 5 already
    slotted the event hierarchy — this rule keeps new hot-path record
    classes honest.  Flagged when a project-defined, slot-less
    *dataclass* is instantiated *inside a loop*: error when the loop
    runs in a hot function (per-event allocation), warning elsewhere.
    Scoped to dataclasses deliberately: they advertise record
    semantics and take ``slots=True`` for free, while retrofitting
    ``__slots__`` onto service/facade classes is invasive and buys
    little (they are built once, not per event).  One-time setup
    instantiation is exempt even in hot functions; so are exception
    classes (raising is the slow path by definition).
    """

    id = "PF004"
    description = (
        "slot-less dataclass instantiated in a (hot-path) loop; "
        "declare it dataclass(slots=True)"
    )
    example_bad = (
        "class WorkerView:  # no __slots__\n"
        "    ...\n"
        "def _handle_worker(self, sock):\n"
        "    view = WorkerView(sock)  # hot: one __dict__ per message"
    )
    example_good = (
        "@dataclass(slots=True)\n"
        "class WorkerView:\n"
        "    ..."
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                cname = func.id
            elif isinstance(func, ast.Attribute):
                cname = func.attr
            else:
                continue
            infos = graph.classes.get(cname)
            if not infos:
                continue
            if any(
                c.slotted
                or c.is_exception
                or not c.is_dataclass
                or set(c.base_names)
                & {
                    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
                    "NamedTuple", "tuple", "TypedDict", "Protocol",
                }
                for c in infos
            ):
                continue
            if _enclosing_loop(module, node) is None:
                continue
            is_hot = self.is_hot(module, graph, hot, node)
            yield self.pf_finding(
                module, node,
                f"class {cname} has no __slots__; each instance "
                "allocates a __dict__ — add __slots__ or "
                "dataclass(slots=True)",
                is_hot,
            )


@register
class TryInEventLoop(PerfRule):
    """``try``/``except`` setup inside a hot per-event loop.

    Entering a ``try`` block per iteration adds interpreter block-stack
    work on every event; hoisting the loop inside the ``try`` (or
    moving the guarded call out) pays it once.  Scoped to *hot*
    functions only: in cold driver/tooling code, per-item ``try`` is
    the normal error-recovery idiom and is deliberately not flagged.
    ``try`` blocks that contain a ``yield`` are exempt everywhere —
    catching :class:`Interrupt`/failure around a yield point is how
    simkernel process bodies are *supposed* to handle cancellation.
    """

    id = "PF005"
    description = (
        "try/except inside a per-event loop in a hot function "
        "(try-around-yield is exempt)"
    )
    example_bad = (
        "while self.queue:\n"
        "    try:\n"
        "        self._place(self.queue[0])\n"
        "    except KeyError:\n"
        "        break"
    )
    example_good = (
        "try:\n"
        "    while self.queue:\n"
        "        self._place(self.queue[0])\n"
        "except KeyError:\n"
        "    pass"
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            if _enclosing_loop(module, node) is None:
                continue
            if any(
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
                for sub in ast.walk(stmt)
            ):
                continue
            if not self.is_hot(module, graph, hot, node):
                continue
            yield self.pf_finding(
                module, node,
                "try/except entered every iteration of a per-event "
                "loop; hoist the loop into the try or move the guarded "
                "call out",
                True,
            )


#: heapq's heap-maintenance functions (the query helpers — merge,
#: nlargest, nsmallest — are not heap *scheduling* and stay unflagged).
_HEAP_FNS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace"}
)

#: The one module allowed to own scheduling heaps: the kernel scheduler
#: (its calendar-queue overflow heap of unique bucket times).
_SCHEDULER_MODULE = "repro.simkernel.core"


@register
class HeapOutsideScheduler(PerfRule):
    """Direct ``heapq`` traffic outside the kernel scheduler.

    The event-loop flattening work moved scheduling off the flat
    ``heapq`` of per-event tuples onto the calendar queue precisely
    because sift-up/sift-down plus a tuple allocation per push is
    measurable at per-event rates — a new ``heappush`` on a hot path
    (worse, one pushing a tuple entry, which re-creates the old
    time-ordered-tuple pattern wholesale) quietly reintroduces the cost
    the kernel just shed.  Time/priority ordering belongs in
    :class:`~repro.simkernel.core.Environment`; only the scheduler
    module itself (its sorted overflow of unique bucket times) owns a
    scheduling heap.  Genuine non-scheduling heaps (e.g.
    priority-ordered *items* in a store) take a
    ``# repro: noqa[PF007]`` with the reason.
    """

    id = "PF007"
    description = (
        "direct heapq use (or tuple heap entries) outside the kernel "
        "scheduler; error on the hot path"
    )
    example_bad = (
        "import heapq\n"
        "def _handle_worker(self, msg):\n"
        "    heapq.heappush(self.pending, (deadline, seq, msg))"
    )
    example_good = (
        "# schedule through the kernel instead of a private time heap\n"
        "self.env.timeout(deadline - self.env.now, value=msg)"
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        from .callgraph import module_name_for

        if module_name_for(module.path) == _SCHEDULER_MODULE:
            return
        # Names bound by `from heapq import heappush [as push]` (plus
        # local aliases like `heappop = heapq.heappop`).
        local_heap_fns: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "heapq":
                for alias in node.names:
                    if alias.name in _HEAP_FNS:
                        local_heap_fns[alias.asname or alias.name] = (
                            alias.name
                        )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "heapq"
                and node.value.attr in _HEAP_FNS
            ):
                local_heap_fns[node.targets[0].id] = node.value.attr
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "heapq"
                and func.attr in _HEAP_FNS
            ):
                fname = func.attr
            elif isinstance(func, ast.Name) and func.id in local_heap_fns:
                fname = local_heap_fns[func.id]
            else:
                continue
            tuple_entry = (
                fname in ("heappush", "heappushpop", "heapreplace")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Tuple)
            )
            detail = (
                " with a tuple entry (the flat-heap pattern the "
                "calendar queue replaced)"
                if tuple_entry
                else ""
            )
            yield self.pf_finding(
                module, node,
                f"heapq.{fname}(){detail} outside the kernel scheduler; "
                "schedule through the Environment calendar queue or "
                "justify the private heap",
                self.is_hot(module, graph, hot, node),
            )


@register
class ClassInFunctionBody(PerfRule):
    """A ``class`` statement inside a function body.

    A ``class`` statement builds a new type object every time it runs,
    and a type is a reference cycle by construction (its ``__mro__``
    and its attribute descriptors point back at it).  Run per call,
    it leaves a type, its namespace dict and its descriptors for the
    cycle collector every time: the removed dispatcher adapter that
    wrapped a job id in a throwaway class left 2,000 cyclic types per
    2,000-job batch.  Define the class once at module level, or pass
    the plain value the callee needs.  Cold factories that build a
    class once (fixtures, plugin registration) take a
    ``# repro: noqa[PF008]`` with the reason.
    """

    id = "PF008"
    description = (
        "class statement inside a function body (a new cyclic type "
        "object per call); error on the hot path"
    )
    example_bad = (
        "def _report(self, job_id):\n"
        "    class _Key:\n"
        "        pass\n"
        "    key = _Key()\n"
        "    key.job_id = job_id\n"
        "    self.aggregator.release(key)"
    )
    example_good = (
        "def _report(self, job_id):\n"
        "    self.aggregator.release(job_id)"
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        enclosing = module.dataflow.enclosing_function
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and enclosing(node) is not None:
                yield self.pf_finding(
                    module, node,
                    f"class {node.name} defined inside a function body "
                    "builds a new type object (a reference cycle) per "
                    "call; define it once at module level",
                    self.is_hot(module, graph, hot, node),
                )


#: The stdlib JSON encoder entry points, by their qualified names.
_JSON_ENCODERS = frozenset(
    {"json.dumps", "json.dump", "json.JSONEncoder", "json.encoder.JSONEncoder"}
)


@register
class JsonEncoderPerCall(PerfRule):
    """A ``json.dumps``, ``json.dump`` or ``JSONEncoder(...)`` call on
    the hot path or in a loop body.

    ``json.dumps`` with any argument besides the object (compact
    ``separators`` included) builds a new ``JSONEncoder``, and the
    encode builds a new C encoder under it, on every call.  Per record
    that was most of the cost of durability: the trace spill spent about
    7.7 µs a record in ``json.dumps``, where one encoder kept per run
    takes about 2.7 µs (DESIGN.md §15).  Encode archival lines with
    :func:`repro.simkernel.monitor.record_encoder`, built once per run
    tag; build any other encoder once, outside the loop.  A one-off
    dump off the hot path (a report printed once, a result file written
    at exit) is fine and is not flagged.
    """

    id = "PF009"
    description = (
        "json.dumps/json.dump/JSONEncoder() call (a new encoder per "
        "call); error on the hot path, warning in a loop body"
    )
    example_bad = (
        "for rec in records:\n"
        "    fh.write(json.dumps({\"t\": rec.time}, separators=(\",\", \":\")))"
    )
    example_good = (
        "encode = record_encoder(run, label)\n"
        "for rec in records:\n"
        "    fh.write(encode(rec.time, rec.category, rec.data))"
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        origins = _imported_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            head, dot, rest = dotted.partition(".")
            if origins.get(head, head) + dot + rest not in _JSON_ENCODERS:
                continue
            is_hot = self.is_hot(module, graph, hot, node)
            if not is_hot and _enclosing_loop(module, node) is None:
                continue
            yield self.pf_finding(
                module, node,
                f"{dotted}() builds a JSON encoder per call; build one "
                "encoder and keep it (record_encoder for archival lines)",
                is_hot,
            )


_LIST_MAKERS = frozenset({"list", "sorted"})


def _is_list_typed(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.ListComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _LIST_MAKERS
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _is_list_typed(expr.left) or _is_list_typed(expr.right)
    return False


@register
class ListMembershipInHotFunction(PerfRule):
    """O(n) membership test against a list in a hot function.

    ``x in some_list`` scans linearly; on the per-event path that turns
    the event loop quadratic as the list grows.  Flagged when every
    reaching definition of the tested name is list-typed (literal,
    comprehension, ``list()``/``sorted()`` call) — a set or frozenset
    makes the same test O(1).  Outside hot functions only membership
    tests *inside loops* warn; a one-off scan in cold code is fine.
    """

    id = "PF006"
    description = (
        "O(n) list-membership test in a hot function (or in a loop); "
        "use a set/frozenset"
    )
    example_bad = (
        "active = []  # job ids\n"
        "while self.queue:\n"
        "    if job.id in active: ..."
    )
    example_good = (
        "active = set()\n"
        "while self.queue:\n"
        "    if job.id in active: ..."
    )

    def check_module(
        self, module: Module, graph: CallGraph, hot: frozenset[str]
    ) -> Iterator[Finding]:
        df = module.dataflow
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if len(node.ops) != 1 or not isinstance(
                node.ops[0], (ast.In, ast.NotIn)
            ):
                continue
            target = node.comparators[0]
            if not isinstance(target, ast.Name):
                continue
            defs = df.reaching_defs(node, target.id)
            if not defs or not all(_is_list_typed(d) for d in defs):
                continue
            is_hot = self.is_hot(module, graph, hot, node)
            if not is_hot and _enclosing_loop(module, node) is None:
                continue
            yield self.pf_finding(
                module, node,
                f"membership test scans list '{target.id}' (O(n)); "
                "use a set/frozenset",
                is_hot,
            )
