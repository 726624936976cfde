"""Static checks for misuse of the DES kernel.

Rules:

* **SK001** — a plain (non-generator) function result passed to
  ``env.process(...)``: the kernel requires a generator; a plain call
  runs eagerly at schedule time and ``Process`` raises at runtime.
  Detected when the called function is defined in the same module and
  contains no ``yield``.
* **SK002** — ``env.run(...)`` re-entered from inside a generator
  (process) function: the scheduler is not reentrant; a process must
  ``yield`` events instead of driving the loop.
* **SK003** — an event triggered twice (``succeed``/``fail``) on the
  same name in one straight-line block: the second call raises
  ``SimulationError`` at runtime.
* **SK004** — a generator's ``finally:`` records, schedules or
  respawns: ``Environment.close()`` runs it at teardown, outside
  simulated time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from .framework import Finding, Module, Rule, register

__all__ = [
    "NonGeneratorProcess",
    "RunInsideProcess",
    "DoubleTrigger",
    "SideEffectInFinally",
]

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_generator(func: _FuncDef) -> bool:
    """Whether a function definition contains yield / yield from."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # Nested defs have their own generator-ness; skip them.
            if _owner(func, node) is func:
                return True
    return False


def _owner(root: _FuncDef, target: ast.AST) -> ast.AST:
    """The innermost function definition containing ``target``."""
    stack: list[tuple[ast.AST, ast.AST]] = [(root, root)]
    while stack:
        node, owner = stack.pop()
        if node is target:
            return owner
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            owner = node
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return root


def _dotted(node: ast.expr) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _env_receiver(chain: str) -> bool:
    """Heuristic: does an attribute chain name a simulation environment?"""
    last = chain.split(".")[-1] if chain else ""
    return last.lstrip("_") in ("env", "environment")


def _module_functions(module: Module) -> dict[str, list[_FuncDef]]:
    """name -> definitions (module level and methods, all scopes)."""
    defs: dict[str, list[_FuncDef]] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


@register
class NonGeneratorProcess(Rule):
    id = "SK001"
    severity = "error"
    description = "non-generator function passed to env.process()"

    def check(self, module: Module) -> Iterator[Finding]:
        defs = _module_functions(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "process"):
                continue
            if not _env_receiver(_dotted(func.value)):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not isinstance(arg, ast.Call):
                continue
            name = _dotted(arg.func).split(".")[-1]
            candidates = defs.get(name)
            if not candidates:
                continue  # defined elsewhere — can't tell statically
            if all(not _is_generator(d) for d in candidates):
                yield self.finding(
                    module,
                    arg,
                    f"{name}() is not a generator; env.process() needs a "
                    "generator that yields events",
                )


@register
class RunInsideProcess(Rule):
    id = "SK002"
    severity = "error"
    description = "env.run() re-entered from inside a process"

    def check(self, module: Module) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                call_func = node.func
                if not (
                    isinstance(call_func, ast.Attribute)
                    and call_func.attr in ("run", "step")
                ):
                    continue
                if not _env_receiver(_dotted(call_func.value)):
                    continue
                if _owner(func, node) is not func:
                    continue  # belongs to a nested non-generator helper
                yield self.finding(
                    module,
                    node,
                    f"env.{call_func.attr}() inside generator "
                    f"{func.name!r} re-enters the scheduler; yield the "
                    "event instead",
                )


@register
class DoubleTrigger(Rule):
    id = "SK003"
    severity = "error"
    description = "event triggered twice in one straight-line block"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            body = getattr(node, "body", None)
            if not isinstance(body, list):
                continue
            for block in self._blocks(node):
                yield from self._check_block(module, block)

    def _blocks(self, node: ast.AST) -> Iterator[list[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if isinstance(block, list) and block and isinstance(
                block[0], ast.stmt
            ):
                yield block

    def _check_block(
        self, module: Module, block: list[ast.stmt]
    ) -> Iterator[Finding]:
        triggered: dict[str, int] = {}
        for stmt in block:
            # A rebind of the name starts a fresh event.
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    triggered.pop(_dotted(target), None)
            if not isinstance(stmt, ast.Expr) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            call = stmt.value
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("succeed", "fail")
            ):
                continue
            receiver = _dotted(func.value)
            if not receiver:
                continue
            if receiver in triggered:
                yield self.finding(
                    module,
                    call,
                    f"{receiver} was already triggered on line "
                    f"{triggered[receiver]}; a second succeed()/fail() "
                    "raises SimulationError",
                )
            else:
                triggered[receiver] = stmt.lineno


#: Exception names whose handler means a ``try`` already tells teardown
#: (``GeneratorExit`` thrown by ``Environment.close()``) from a real exit.
_TEARDOWN_AWARE = ("GeneratorExit", "BaseException")


def _handles_teardown(node: ast.Try) -> bool:
    for handler in node.handlers:
        if handler.type is None:  # bare except: catches GeneratorExit too
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for exc in types:
            if _dotted(exc).split(".")[-1] in _TEARDOWN_AWARE:
                return True
    return False


def _teardown_effect(call: ast.Call) -> str:
    """What a call in a ``finally:`` would do at teardown, or ''."""
    func = call.func
    if isinstance(func, ast.Name):
        return "on_exit()" if func.id == "on_exit" else ""
    if not isinstance(func, ast.Attribute):
        return ""
    receiver = _dotted(func.value)
    if func.attr == "log" and receiver.split(".")[-1].lstrip("_").endswith(
        "trace"
    ):
        return f"{receiver}.log()"
    if func.attr in ("succeed", "fail"):
        return f"{receiver or '<event>'}.{func.attr}()"
    if func.attr in ("process", "timeout") and _env_receiver(receiver):
        return f"{receiver}.{func.attr}()"
    if func.attr == "on_exit":
        return f"{receiver}.on_exit()"
    return ""


@register
class SideEffectInFinally(Rule):
    """A generator's ``finally:`` logs, triggers, schedules or respawns.

    ``Environment.close()`` ends a run by closing every generator still
    parked in it, which runs each pending ``finally:`` at teardown,
    outside simulated time.  A trace record written there
    lands after the run is over, an event triggered or scheduled there
    lands in a calendar that is about to be emptied, and an ``on_exit``
    hook there respawns a pilot into a dead platform.  Move such
    bookkeeping after the ``try`` statement (it then runs on every
    exit the generator reaches by itself), or add an ``except
    GeneratorExit:`` handler that tells teardown apart.  Only direct
    calls in the ``finally:`` block are checked.
    """

    id = "SK004"
    severity = "error"
    description = (
        "generator finally: logs, triggers, schedules or respawns "
        "(Environment.close() runs it at teardown)"
    )
    example_bad = (
        "def _body(self):\n"
        "    try:\n"
        "        yield self.sock.recv()\n"
        "    finally:\n"
        "        self.sock.close()\n"
        "        self.trace.log(\"worker.stop\", {\"worker\": self.id})"
    )
    example_good = (
        "def _body(self):\n"
        "    try:\n"
        "        yield self.sock.recv()\n"
        "    finally:\n"
        "        self.sock.close()\n"
        "    self.trace.log(\"worker.stop\", {\"worker\": self.id})"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Try) or not node.finalbody:
                    continue
                if _owner(func, node) is not func or _handles_teardown(node):
                    continue
                for stmt in node.finalbody:
                    for call in ast.walk(stmt):
                        if not isinstance(call, ast.Call):
                            continue
                        effect = _teardown_effect(call)
                        if effect and _owner(func, call) is func:
                            yield self.finding(
                                module,
                                call,
                                f"finally: of generator {func.name!r} "
                                f"calls {effect}; Environment.close() "
                                "runs it at teardown — move it after "
                                "the try or handle GeneratorExit",
                            )
