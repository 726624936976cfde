"""Layer map and cProfile cost attribution for the traced run.

A layer is a set of ``repro`` modules named after its main module.  The
traced child runs its workload under :mod:`cProfile`; nothing inside the
layers is instrumented.  From the profile this module derives, per
layer:

* ``self_s`` — the sum of ``tottime`` over the layer's functions, plus
  its part of every stdlib/builtin function's self time.  A function
  outside the project (``heapq``, ``json``, ``fdatasync``, generated
  dataclass ``__init__`` code, import machinery) is charged to the
  layers that called it, in proportion to the per-caller time cProfile
  records, following callers through other outside functions;
* ``share`` — ``self_s`` over the attributed total;
* ``calls_in`` — calls into the layer's functions from a function of
  another layer, generator resumes and kernel-driven callbacks
  included.  A call made through an outside frame (a generator's
  ``send``, ``sorted(key=...)``) counts for the nearest project caller;
  where such a frame is reached from several layers its calls are
  apportioned by call count, so the result is the same on every run.

Span wrappers around public methods would charge the protocol-loop
bodies that the kernel resumes to ``simkernel.core``; the profile's
caller edges do not have that problem.
"""

from __future__ import annotations

import os

#: layer -> modules.  ``pkg.*`` names a whole package (the package
#: itself and everything under it); other entries are exact module names,
#: so a new module in ``repro.core`` or ``repro.simkernel`` is unmapped
#: until it is added here.
LAYERS: dict[str, tuple[str, ...]] = {
    "simkernel.core": (
        "repro.simkernel", "repro.simkernel.core", "repro.simkernel.rng",
    ),
    "simkernel.resources": ("repro.simkernel.resources",),
    "simkernel.monitor": ("repro.simkernel.monitor",),
    "netsim": ("repro.netsim.*",),
    "cluster": ("repro.cluster.*",),
    "oslayer": ("repro.oslayer.*",),
    # The package roots re-export the jets facade, so they sit with it.
    "core.dispatcher": (
        "repro", "repro.core", "repro.core.dispatcher",
        "repro.core.aggregator", "repro.core.tasklist",
        "repro.core.policies", "repro.core.staging", "repro.core.jets",
        "repro.core.cli",
    ),
    "core.worker": ("repro.core.worker",),
    "core.journal": ("repro.core.journal",),
    "core.recovery": (
        "repro.core.recovery", "repro.core.chaos", "repro.core.faults",
        "repro.core.resume",
    ),
    "mpi": ("repro.mpi.*",),
    "obs": ("repro.obs.*", "repro.metrics.*"),
    "analysis": ("repro.analysis.*",),
    # Swift drives jobs the way an application workflow does.
    "apps": ("repro.apps.*", "repro.swift.*"),
    # The comparison baselines are only reached from the experiments.
    "bench": ("repro.bench.*", "repro.experiments.*", "repro.baselines.*"),
}

#: Exact per-layer counts read off the profile: metric -> (module,
#: qualified function).  Each counted function runs once per counted
#: thing (``__init__`` rather than a generator body, whose every resume
#: is a call).
CALL_COUNTERS: dict[str, tuple[str, str]] = {
    "simkernel.core.processes": ("repro.simkernel.core", "Process.__init__"),
    "netsim.sends": ("repro.netsim.sockets", "Socket.send"),
    "mpi.wireups": ("repro.mpi.hydra", "MpiexecController.__init__"),
}


def layers_of(module: str) -> list[str]:
    """Every layer whose module list names ``module`` (one when mapped)."""
    found = []
    for layer, names in LAYERS.items():
        for name in names:
            if name.endswith(".*"):
                pkg = name[:-2]
                hit = module == pkg or module.startswith(pkg + ".")
            else:
                hit = module == name
            if hit:
                found.append(layer)
                break
    return found


def module_for(path: str, repro_dir: str) -> str | None:
    """Dotted module name of a source file inside ``repro_dir``, else None."""
    if not path.endswith(".py") or not path.startswith(repro_dir + os.sep):
        return None
    rel = os.path.relpath(path[:-3], os.path.dirname(repro_dir))
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(repro_dir: str) -> list[str]:
    """Every module of the package rooted at ``repro_dir``, sorted."""
    out = []
    for root, dirs, files in os.walk(repro_dir):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
        for name in files:
            if name.endswith(".py"):
                out.append(module_for(os.path.join(root, name), repro_dir))
    return sorted(out)


#: Fixed-point sweep limits for :func:`_origins`.
_SWEEPS = 1000
_TOLERANCE = 1e-12


def _origins(stats: dict, layer: dict, col: int) -> dict:
    """Per outside function, the share of it owed to each layer.

    ``col`` picks the caller-edge column the shares are weighted by: 1
    for call counts, 2 for self time (call counts where a function's
    callers recorded no time).  An outside function's shares are the
    weighted mix of its callers' shares, a project function's are its
    own layer's.  Outside callers can form cycles (the import machinery
    re-enters itself through every module it loads), so the shares are
    the fixed point of that mix, swept in sorted order until nothing
    moves.  The last slot of each share vector collects what no project
    function called: the benchmark's own code and the interpreter.
    """
    index = {name: i for i, name in enumerate(LAYERS)}
    width = len(LAYERS) + 1
    outside = sorted(key for key in stats if key not in layer)
    base: dict = {}
    links: dict = {}
    for key in outside:
        # A self-edge only redistributes over the other callers.
        callers = {c: e for c, e in stats[key][4].items() if c != key}
        weights = {c: e[col] for c, e in callers.items()}
        if not sum(weights.values()):
            weights = {c: e[1] for c, e in callers.items()}
        total = sum(weights.values())
        vec = [0.0] * width
        inner = []
        if not total:
            vec[-1] = 1.0
        for c in sorted(weights):
            if total and weights[c]:
                if c in layer:
                    vec[index[layer[c]]] += weights[c] / total
                else:
                    inner.append((weights[c] / total, c))
        base[key] = vec
        links[key] = inner
    shares = {key: list(base[key]) for key in outside}
    linked = [key for key in outside if links[key]]
    for _ in range(_SWEEPS):
        moved = 0.0
        for key in linked:
            vec = list(base[key])
            for w, c in links[key]:
                for i, x in enumerate(shares[c]):
                    vec[i] += w * x
            moved = max(moved, *(abs(a - b) for a, b in zip(vec, shares[key])))
            shares[key] = vec
        if moved < _TOLERANCE:
            break
    return shares


def attribute(stats: dict, repro_dir: str) -> dict:
    """Per-layer ``self_s``/``share``/``calls_in`` plus ``coverage``.

    ``stats`` is a :class:`pstats.Stats` ``stats`` table:
    ``(file, line, name) -> (cc, nc, tottime, cumtime, callers)``.
    """
    layer: dict = {}
    for key in stats:
        module = module_for(key[0], repro_dir)
        found = layers_of(module) if module is not None else []
        if len(found) == 1:
            layer[key] = found[0]
    by_time = _origins(stats, layer, 2)
    by_calls = _origins(stats, layer, 1)
    names = list(LAYERS)

    self_s = dict.fromkeys(names, 0.0)
    calls_in = dict.fromkeys(names, 0.0)
    total = 0.0
    for key in sorted(stats):
        row = stats[key]
        total += row[2]
        target = layer.get(key)
        if target is None:
            for name, share in zip(names, by_time[key]):
                self_s[name] += row[2] * share
            continue
        self_s[target] += row[2]
        inside = names.index(target)
        for caller in sorted(row[4]):
            calls = row[4][caller][1]
            if caller in layer:
                if layer[caller] != target:
                    calls_in[target] += calls
            else:
                calls_in[target] += calls * (1.0 - by_calls[caller][inside])

    attributed = sum(self_s.values())
    return {
        "layers": {
            name: {
                "self_s": self_s[name],
                "share": self_s[name] / attributed if attributed else 0.0,
                "calls_in": round(calls_in[name]),
            }
            for name in names
        },
        "coverage": attributed / total if total else 0.0,
        "profiled_s": total,
    }


def call_counts(stats: dict) -> dict:
    """The :data:`CALL_COUNTERS` and ``core.journal.fsyncs`` from a profile."""
    import importlib

    out = {}
    for metric, (module, qualname) in CALL_COUNTERS.items():
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[metric] = row[1] if row else 0
    out["core.journal.fsyncs"] = sum(
        row[1]
        for (filename, _line, name), row in stats.items()
        if filename == "~" and ("fdatasync" in name or "posix.fsync" in name)
    )
    return out
