"""In-memory span tracing around tumorbim's public entry points.

A Tracer replaces each traced entry point with a wrapper at the place its
caller looks it up (a module attribute such as ``tumorbim.kernels.k0`` or a
class attribute such as ``FieldSolver.solve``), so the wrapper is the name
the caller really uses.  Each call records a span: name, start, end, parent
span, step id and an optional size.  The spans stay in memory until the run
ends; ``layer_metrics`` turns them into per-step self times and counts.

Leaving the ``with`` block puts every original attribute back, so untraced
measurements never run through a wrapper.
"""

import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, STEP, INFO = range(6)
ROOT = "driver.run"
STEP_START = "geometry.samples"   # the first call of each driver loop iteration

BESSEL = ("i0", "i1", "k0", "k1")
BLOCKS = ("helmholtz_self", "helmholtz_cross", "laplace_self", "laplace_cross")
IO = ("driver.write_snapshot", "driver.emit_traces", "driver.save_checkpoint",
      "driver.record_write")

# the self times that partition a traced loop iteration
STEP_PARTS = ("bessel.s", "kernels.helmholtz_self.s", "kernels.helmholtz_cross.s",
              "kernels.laplace_self.s", "kernels.laplace_cross.s",
              "solver.solve_self.s", "solver.system_glue.s", "solver.gmres.s",
              "solver.proximity.s", "geometry.samples.s", "geometry.gap.s",
              "geometry.self_gap.s", "geometry.shape_diagnostics.s",
              "stepping.step.s", "driver.io.s", "driver.loop_self.s")


def _first_arg_size(args, out):
    return int(np.size(args[0]))


def _returned_size(args, out):
    return int(sum(np.size(m) for m in out))


def _gmres_iters(args, out):
    return (out.gmres_iters_nutrient, out.gmres_iters_pressure)


def trace_targets(tb):
    """(owner, attribute, span name, info function) for every traced name.

    `tb` maps module names ('kernels', 'solver', 'driver', 'geometry') to
    the imported tumorbim modules.
    """
    ker, sol, drv, geo = tb["kernels"], tb["solver"], tb["driver"], tb["geometry"]
    targets = [(ker, f, f"bessel.{f}", _first_arg_size) for f in BESSEL]
    targets += [(ker, f"{b}_blocks", f"kernels.{b}", _returned_size) for b in BLOCKS]
    targets += [(sol, f, f"solver.{f}", None) for f in
                ("gmres", "nutrient_system", "pressure_system",
                 "proximity_warning", "solve_nutrient", "solve_pressure")]
    targets.append((sol, "min_gap_between", "geometry.min_gap_between", None))
    targets.append((drv, "min_gap_between", "geometry.min_gap_between", None))
    targets += [(drv, f, f"driver.{f}", None) for f in
                ("min_self_gap", "shape_diagnostics", "step", "first_step",
                 "write_snapshot", "emit_traces", "save_checkpoint",
                 "initial_interface")]
    targets += [(drv.RunRecord, "write", "driver.record_write", None),
                (geo.InterfaceState, "samples", STEP_START, None),
                (sol.FieldSolver, "solve", "solver.solve", _gmres_iters),
                (sol.FieldSolver, "__init__", "solver.static_blocks", None)]
    return targets


def _raw(owner, attr):
    """The attribute as stored, without binding a method to its class."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Records spans while installed; see the module docstring.

    One Tracer may be entered again for each traced call; its spans
    accumulate in one list, so parent indices stay valid across calls.
    """

    def __init__(self, tb):
        self.targets = trace_targets(tb)
        self.spans = []
        self._stack = []
        self._step = None
        self._saved = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == STEP_START and len(stack) == 1:
                self._step = 0 if self._step is None else self._step + 1
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    self._step, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name, info in self.targets:
            original = _raw(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    @contextmanager
    def root(self):
        """Open the root span around one driver call; steps restart at 0."""
        self._step = None
        span = [ROOT, time.perf_counter(), 0.0, None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()


def installed_wrappers(tb):
    """Traced attributes that currently hold a wrapper instead of the original."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in trace_targets(tb)
            if hasattr(_raw(owner, attr), "__wrapped__")]


def layer_metrics(spans):
    """Per-layer numbers of the traced driver calls in `spans`.

    Times and counts marked per step are summed over the spans that belong
    to a loop iteration and divided by the number of iterations; the two
    set-up spans are averaged per driver call.  Every step time is a self
    time (a span's duration minus its traced children), so the per-step
    times add up to the traced step time.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[PARENT] is not None:
            child[s[PARENT]] += d
    own = dur - child

    self_s, incl_s, calls, info = {}, {}, {}, {}
    steps = calls_root = 0
    setup = {"solver.static_blocks": 0.0, "driver.initial_interface": 0.0}
    looped = {}    # root span -> (start of its first step, time its steps cover)
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == ROOT:
            calls_root += 1
            continue
        if s[STEP] is None:
            if name in setup:
                setup[name] += dur[i]
            continue
        self_s[name] = self_s.get(name, 0.0) + own[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if s[INFO] is not None:
            info.setdefault(name, []).append(s[INFO])
        if spans[s[PARENT]][NAME] == ROOT:
            first, covered = looped.get(s[PARENT], (s[START], 0.0))
            looped[s[PARENT]] = (first, covered + dur[i])
            steps += name == STEP_START
    # the root's self time inside the loop: from its first step to its end
    loop_self = sum(spans[r][END] - first - covered
                    for r, (first, covered) in looped.items())
    steps = max(steps, 1)
    calls_root = max(calls_root, 1)

    def per_step(table, *names):
        return sum(table.get(k, 0) for k in names) / steps

    iters = np.array(info.pop("solver.solve", [(0, 0)]), dtype=float)
    sizes = {k: sum(v) for k, v in info.items()}
    out = {
        "bessel.s": per_step(self_s, *(f"bessel.{f}" for f in BESSEL)),
        **{f"bessel.{f}.evals": per_step(sizes, f"bessel.{f}") for f in BESSEL},
        **{f"kernels.{b}.s": per_step(self_s, f"kernels.{b}") for b in BLOCKS},
        "kernels.blocks.calls": per_step(calls, *(f"kernels.{b}" for b in BLOCKS)),
        "kernels.entries": per_step(sizes, *(f"kernels.{b}" for b in BLOCKS)),
        "solver.solve.s": per_step(incl_s, "solver.solve"),
        "solver.solve_self.s": per_step(self_s, "solver.solve",
                                        "solver.solve_nutrient",
                                        "solver.solve_pressure"),
        "solver.static_blocks.s": setup["solver.static_blocks"] / calls_root,
        "solver.system_glue.s": per_step(self_s, "solver.nutrient_system",
                                         "solver.pressure_system"),
        "solver.gmres.s": per_step(self_s, "solver.gmres"),
        "solver.gmres.calls": per_step(calls, "solver.gmres"),
        "solver.iters.nutrient": float(iters[:, 0].sum()) / steps,
        "solver.iters.pressure": float(iters[:, 1].sum()) / steps,
        "solver.proximity.s": per_step(self_s, "solver.proximity_warning"),
        "geometry.samples.s": per_step(self_s, STEP_START),
        "geometry.gap.s": per_step(self_s, "geometry.min_gap_between"),
        "geometry.gap.calls": per_step(calls, "geometry.min_gap_between"),
        "geometry.self_gap.s": per_step(self_s, "driver.min_self_gap"),
        "geometry.shape_diagnostics.s": per_step(self_s, "driver.shape_diagnostics"),
        "geometry.initial_interface.s": setup["driver.initial_interface"] / calls_root,
        "stepping.step.s": per_step(self_s, "driver.step", "driver.first_step"),
        "stepping.step.calls": per_step(calls, "driver.step", "driver.first_step"),
        "driver.io.s": per_step(self_s, *IO),
        "driver.loop_self.s": loop_self / steps,
    }
    out["trace.step.s"] = sum(out[k] for k in STEP_PARTS)
    return out
