"""Project-wide call graph and hot-set computation for the perf lint.

Built on top of the per-module :class:`~.framework.Dataflow` pass, this
resolves a *static over-approximation* of the call graph across every
module in one lint invocation:

* **module-level and local calls** — ``f(...)`` resolves to a function
  named ``f`` in the same module, else to any module-level ``f`` in the
  project (imports are not tracked; name identity is the approximation);
* **method dispatch** — ``self.m(...)`` resolves within the enclosing
  class, then through its base classes by name; ``obj.m(...)`` falls
  back to *class-hierarchy-analysis by name*: every project method
  called ``m`` is a candidate (ubiquitous builtin-collection method
  names are excluded to keep the approximation useful);
* **process factories** — ``env.process(self._run(...))`` adds a
  ``process`` edge from the registering function to the factory, and
  the factory body itself is dispatched from the kernel event loop;
* **callback registrations** — callables handed to ``subscribe`` /
  ``add_tap`` / ``_add_callback`` / ``set_provenance`` or appended to
  ``*.callbacks`` get a ``callback`` edge from the registration site,
  and a ``dispatch`` edge from ``Environment.step``/``run`` (callbacks
  *run inside* the kernel loop, so if the kernel is in the analyzed
  set, every registered callback body is on the hot path).

The **hot set** is everything reachable from the declared kernel entry
points (:data:`DEFAULT_ENTRIES`), optionally unioned with functions
named by a measured profile (``jets bench --profile`` →
``BENCH_profile.json`` → ``jets lint --hot-profile``).  The perf rule
family (:mod:`.perf_rules`, PF001–PF006) escalates from warning to
error on this set, and ``jets hotpath`` dumps it and explains
reachability via shortest entry→function chains.

Over-approximation is the deliberate trade: a function wrongly *in*
the hot set gets a stricter severity on a real (if colder) hazard; a
function wrongly *out* still gets the warning-level finding.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import PurePath
from typing import Iterable, Optional, Sequence

from .framework import Module

__all__ = [
    "DEFAULT_ENTRIES",
    "FuncInfo",
    "ClassInfo",
    "CallGraph",
    "module_name_for",
    "shared_graph",
    "load_profile",
]

#: Declared kernel entry points, matched against ``Class.method`` /
#: function qualnames in any module.  These are the roots of the hot
#: set: the simkernel event loop, the event/process resume machinery,
#: the store/resource dispatch fixpoints, and the dispatcher/aggregator
#: message handlers the JETS scaling story hinges on.
DEFAULT_ENTRIES: tuple[str, ...] = (
    "Environment.step",
    "Environment.run",
    "Event.succeed",
    "Event.fail",
    "Process._resume",
    "Store._dispatch",
    "FilterStore._dispatch",
    "Resource._grant",
    "JetsDispatcher._handle_worker",
    "JetsDispatcher._scheduler_loop",
    "JetsDispatcher._health_monitor",
    "JetsDispatcher._on_worker_done",
    "JetsDispatcher._worker_lost",
    "JetsDispatcher._finish",
    "Aggregator.mark_ready",
    "Aggregator.place",
    "Aggregator.release",
    "WorkerAgent._body",
)

#: Entries whose bodies *drive* registered callbacks: if one of these is
#: in the analyzed set, every callback-registered function gets a
#: ``dispatch`` edge from it.
_DISPATCH_ENTRIES = ("Environment.step", "Environment.run")

#: Ubiquitous builtin-collection/str method names excluded from
#: name-based CHA: resolving ``d.items()`` to some project method named
#: ``items`` would drown the graph in false edges.
_CHA_SKIP = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "copy",
    "update", "keys", "values", "items", "setdefault", "add", "discard",
    "sort", "reverse", "count", "index", "join", "split", "rsplit",
    "strip", "lstrip", "rstrip", "format", "startswith", "endswith",
    "encode", "decode", "write", "writelines", "read", "readline",
    "flush", "popleft", "appendleft",
})

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``.../src/repro/simkernel/core.py`` → ``repro.simkernel.core``;
    files outside a ``src``/``repro`` root fall back to their stem, so
    fixture files analyzed standalone still get stable ids.
    """
    p = PurePath(path)
    parts = list(p.parts[:-1])
    if p.stem != "__init__":
        parts.append(p.stem)
    last_index = {part: i for i, part in enumerate(parts)}
    for anchor in ("src", "repro"):
        i = last_index.get(anchor)
        if i is not None:
            tail = parts[i + 1:] if anchor == "src" else parts[i:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else p.stem or "module"


@dataclass
class FuncInfo:
    """One function/method node in the graph."""

    id: str           # "repro.simkernel.core:Environment.step"
    module: str
    qualname: str     # "Environment.step" / "main" / "outer.inner"
    name: str         # bare name
    path: str
    lineno: int
    node: Optional[ast.AST]   # None for the synthetic <module> node
    is_method: bool = False


@dataclass
class ClassInfo:
    """One project class, as seen by PF004 (slots audit)."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    slotted: bool
    is_exception: bool
    is_dataclass: bool = False
    base_names: tuple[str, ...] = ()


def _class_is_slotted(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    return False


def _class_is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _base_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[T]-style bases
        return _base_name(expr.value)
    return None


_EXC_SUFFIXES = ("Error", "Exception", "Warning", "Interrupt")
#: Bases that make instantiation a lookup or an already-compact layout.
_SLOT_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "NamedTuple",
    "tuple", "TypedDict",
})


def _looks_exceptional(name: str) -> bool:
    return name.endswith(_EXC_SUFFIXES) or name in (
        "BaseException", "KeyboardInterrupt", "StopIteration",
    )


class CallGraph:
    """The project call graph; build once per lint run via :meth:`build`."""

    def __init__(self) -> None:
        #: function id -> FuncInfo
        self.functions: dict[str, FuncInfo] = {}
        #: caller id -> {callee id: edge kind}; kinds: call, method,
        #: cha, process, callback, dispatch, init
        self.edges: dict[str, dict[str, str]] = {}
        #: hot-set roots: id -> reason ("entry:<pattern>")
        self.roots: dict[str, str] = {}
        #: class name -> every project class with that name
        self.classes: dict[str, list[ClassInfo]] = {}
        self._by_node: dict[int, str] = {}
        self._by_name: dict[str, list[str]] = {}
        self._methods: dict[str, list[str]] = {}  # method name -> ids
        self._rev: Optional[dict[str, list[tuple[str, str]]]] = None
        self._hot_cache: dict[frozenset, frozenset] = {}
        self.entries: tuple[str, ...] = DEFAULT_ENTRIES

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        modules: Sequence[Module],
        entries: Sequence[str] = DEFAULT_ENTRIES,
    ) -> "CallGraph":
        graph = cls()
        graph.entries = tuple(entries)
        for module in modules:
            graph._index_module(module)
        for module in modules:
            graph._edges_for_module(module)
        graph._mark_entries(entries)
        graph._wire_dispatch(modules)
        return graph

    def _index_module(self, module: Module) -> None:
        mod = module_name_for(module.path)

        def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_DEFS):
                    qual = f"{prefix}{child.name}" if prefix else child.name
                    self._add_function(
                        mod, qual, child, module.path, in_class
                    )
                    visit(child, f"{qual}.", False)
                elif isinstance(child, ast.ClassDef):
                    self._add_class(mod, child, module.path)
                    qual = (
                        f"{prefix}{child.name}" if prefix else child.name
                    )
                    visit(child, f"{qual}.", True)
                else:
                    visit(child, prefix, in_class)

        visit(module.tree, "", False)
        # Synthetic node for the module body, so module-level calls have
        # a caller and profiles can name "<module>" frames.
        self._add_function(mod, "<module>", None, module.path, False)

    def _add_function(
        self,
        mod: str,
        qualname: str,
        node: Optional[ast.AST],
        path: str,
        is_method: bool,
    ) -> None:
        fid = f"{mod}:{qualname}"
        if fid in self.functions:  # redefinition: keep the first
            if node is not None:
                self._by_node[id(node)] = fid
            return
        name = qualname.rsplit(".", 1)[-1]
        info = FuncInfo(
            id=fid, module=mod, qualname=qualname, name=name, path=path,
            lineno=getattr(node, "lineno", 0), node=node,
            is_method=is_method,
        )
        self.functions[fid] = info
        if node is not None:
            self._by_node[id(node)] = fid
        self._by_name.setdefault(name, []).append(fid)
        if is_method:
            self._methods.setdefault(name, []).append(fid)

    def _add_class(
        self, mod: str, node: ast.ClassDef, path: str
    ) -> None:
        bases = tuple(
            b for b in (_base_name(e) for e in node.bases) if b
        )
        info = ClassInfo(
            name=node.name, module=mod, path=path, node=node,
            slotted=_class_is_slotted(node),
            is_exception=_looks_exceptional(node.name)
            or any(_looks_exceptional(b) for b in bases),
            is_dataclass=_class_is_dataclass(node),
            base_names=bases,
        )
        self.classes.setdefault(node.name, []).append(info)

    # -- edges -------------------------------------------------------------

    def _add_edge(self, src: str, dst: str, kind: str) -> None:
        if src == dst:
            return
        self.edges.setdefault(src, {}).setdefault(dst, kind)

    def _caller_id(self, module: Module, node: ast.AST) -> str:
        """The graph id of the function whose body holds ``node``
        (lambdas are attributed to their enclosing named function)."""
        df = module.dataflow
        cur = df.enclosing_function(node)
        while cur is not None:
            fid = self._by_node.get(id(cur))
            if fid is not None:
                return fid
            cur = df.enclosing_function(cur)
        return f"{module_name_for(module.path)}:<module>"

    def _edges_for_module(self, module: Module) -> None:
        mod = module_name_for(module.path)
        df = module.dataflow
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            src = self._caller_id(module, call)
            func = call.func
            if isinstance(func, ast.Name):
                self._resolve_name_call(src, mod, func.id)
            elif isinstance(func, ast.Attribute):
                self._resolve_attr_call(src, module, call, func)
            # env.process(factory(...)): edge to the factory as well.
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "process"
                and call.args
                and isinstance(call.args[0], ast.Call)
            ):
                inner = call.args[0].func
                if isinstance(inner, ast.Name):
                    self._resolve_name_call(
                        src, mod, inner.id, kind="process"
                    )
                elif (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    self._resolve_self_call(
                        src, module, call, inner.attr, kind="process"
                    )

    def _resolve_name_call(
        self, src: str, mod: str, name: str, kind: str = "call"
    ) -> None:
        same = [
            fid for fid in self._by_name.get(name, [])
            if self.functions[fid].module == mod
            and not self.functions[fid].is_method
        ]
        if not same:
            same = [
                fid for fid in self._by_name.get(name, [])
                if not self.functions[fid].is_method
                and "." not in self.functions[fid].qualname
            ]
        for fid in same:
            self._add_edge(src, fid, kind)
        # Constructor call: edge into __init__ of the matching class.
        for cls_info in self.classes.get(name, []):
            init = f"{cls_info.module}:{cls_info.name}.__init__"
            if init in self.functions:
                self._add_edge(src, init, "init")

    def _resolve_self_call(
        self,
        src: str,
        module: Module,
        site: ast.AST,
        attr: str,
        kind: str = "method",
    ) -> None:
        df = module.dataflow
        cls = df.class_of(site)
        mod = module_name_for(module.path)
        seen: set[str] = set()
        queue = [cls.name] if cls is not None else []
        while queue:
            cname = queue.pop(0)
            if cname in seen:
                continue
            seen.add(cname)
            for cls_info in self.classes.get(cname, []):
                fid = f"{cls_info.module}:{cls_info.name}.{attr}"
                if fid in self.functions:
                    self._add_edge(src, fid, kind)
                    return
                queue.extend(cls_info.base_names)
        # Not found in the hierarchy: fall back to CHA by name.
        self._resolve_cha(src, attr, kind="cha")

    def _resolve_attr_call(
        self,
        src: str,
        module: Module,
        call: ast.Call,
        func: ast.Attribute,
    ) -> None:
        attr = func.attr
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            self._resolve_self_call(src, module, call, attr)
            return
        self._resolve_cha(src, attr, kind="cha")
        # Constructor via module attribute: hydra.JobResult(...)
        for cls_info in self.classes.get(attr, []):
            init = f"{cls_info.module}:{cls_info.name}.__init__"
            if init in self.functions:
                self._add_edge(src, init, "init")

    def _resolve_cha(self, src: str, attr: str, kind: str) -> None:
        if attr.startswith("__") or attr in _CHA_SKIP:
            return
        for fid in self._methods.get(attr, []):
            self._add_edge(src, fid, kind)

    def _mark_entries(self, entries: Sequence[str]) -> None:
        for fid, info in self.functions.items():
            for pattern in entries:
                if info.qualname == pattern or info.qualname.endswith(
                    "." + pattern
                ):
                    self.roots[fid] = f"entry:{pattern}"
                    break

    def _wire_dispatch(self, modules: Sequence[Module]) -> None:
        """``dispatch`` edges from the kernel loop to every registered
        callback body — callbacks *run inside* ``Environment.step``."""
        step_ids = [
            fid for fid, why in self.roots.items()
            if why.split(":", 1)[1] in _DISPATCH_ENTRIES
        ]
        if not step_ids:
            return
        for module in modules:
            for cb in module.dataflow.callbacks:
                fid = self._by_node.get(id(cb))
                if fid is None:
                    continue
                for step in step_ids:
                    self._add_edge(step, fid, "dispatch")
                # The registering function also reaches the callback.
                # (Dataflow does not record the site, so the dispatch
                # edge is the load-bearing one for reachability.)

    # -- queries -----------------------------------------------------------

    def id_of(self, node: ast.AST) -> Optional[str]:
        """Graph id of a function-def AST node, if indexed."""
        return self._by_node.get(id(node))

    def match_profile(self, profile_ids: Iterable[str]) -> set[str]:
        """Map profile function ids onto graph ids (exact, then
        qualname-suffix match)."""
        matched: set[str] = set()
        for pid in profile_ids:
            if pid in self.functions:
                matched.add(pid)
                continue
            qual = pid.rsplit(":", 1)[-1]
            for fid, info in self.functions.items():
                if info.qualname == qual or info.qualname.endswith(
                    "." + qual
                ):
                    matched.add(fid)
        return matched

    def hot_set(
        self, profile_ids: Optional[Iterable[str]] = None
    ) -> frozenset[str]:
        """Every function reachable from the entry roots (∪ profile)."""
        extra = (
            frozenset(self.match_profile(profile_ids))
            if profile_ids else frozenset()
        )
        cached = self._hot_cache.get(extra)
        if cached is not None:
            return cached
        seen: set[str] = set()
        queue = sorted(set(self.roots) | extra)
        while queue:
            fid = queue.pop()
            if fid in seen:
                continue
            seen.add(fid)
            for dst in self.edges.get(fid, {}):
                if dst not in seen:
                    queue.append(dst)
        result = frozenset(seen)
        self._hot_cache[extra] = result
        return result

    def _reverse(self) -> dict[str, list[tuple[str, str]]]:
        if self._rev is None:
            rev: dict[str, list[tuple[str, str]]] = {}
            for src, dsts in self.edges.items():
                for dst, kind in dsts.items():
                    rev.setdefault(dst, []).append((src, kind))
            for lst in rev.values():
                lst.sort()
            self._rev = rev
        return self._rev

    def chain(
        self, target: str, profile_ids: Optional[Iterable[str]] = None
    ) -> Optional[list[tuple[str, str]]]:
        """Shortest root→``target`` chain as ``[(id, edge kind), ...]``.

        The first element's kind is the root reason (``entry:...`` or
        ``profile``); returns None if ``target`` is not reachable.
        """
        roots = dict(self.roots)
        if profile_ids:
            for fid in self.match_profile(profile_ids):
                roots.setdefault(fid, "profile")
        if target in roots:
            return [(target, roots[target])]
        rev = self._reverse()
        # BFS backward from the target until any root is met.
        prev: dict[str, tuple[str, str]] = {}
        queue = [target]
        seen = {target}
        while queue:
            cur = queue.pop(0)
            for src, kind in rev.get(cur, []):
                if src in seen:
                    continue
                seen.add(src)
                prev[src] = (cur, kind)
                if src in roots:
                    chain = [(src, roots[src])]
                    node = src
                    while node != target:
                        nxt, kind = prev[node]
                        chain.append((nxt, kind))
                        node = nxt
                    return chain
                queue.append(src)
        return None

    def resolve(self, name: str) -> list[str]:
        """Graph ids matching a user-supplied function name: exact id,
        then ``Class.method`` qualname, then bare name."""
        if name in self.functions:
            return [name]
        matches = sorted(
            fid for fid, info in self.functions.items()
            if info.qualname == name
            or info.qualname.endswith("." + name)
        )
        if matches:
            return matches
        return sorted(self._by_name.get(name, []))


def shared_graph(modules: Sequence[Module]) -> CallGraph:
    """The per-lint-run CallGraph, built once and cached on the first
    module (every PF rule sees the same ``modules`` list)."""
    if not modules:
        return CallGraph()
    anchor = modules[0]
    cached = getattr(anchor, "_shared_callgraph", None)
    if cached is not None and cached[0] == len(modules):
        return cached[1]
    graph = CallGraph.build(modules)
    anchor._shared_callgraph = (len(modules), graph)
    return graph


def load_profile(path: str) -> tuple[set[str], dict]:
    """Read a ``BENCH_profile.json`` and return the union of profiled
    hot function ids across workloads, plus the raw document."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "workloads" not in doc:
        raise ValueError(
            f"{path}: not a bench profile (missing 'workloads')"
        )
    ids: set[str] = set()
    for entries in doc.get("workloads", {}).values():
        for entry in entries:
            fid = entry.get("id") if isinstance(entry, dict) else None
            if fid:
                ids.add(fid)
    return ids, doc
