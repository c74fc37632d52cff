"""tumorbim benchmark: one workload, measured for a fixed time, checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig7-n512 --seed 1 --seconds 28 --trace 0

The run imports tumorbim from ``src/`` next to this directory, makes one
untimed warm-up call, then repeats the workload's call (one ``driver.run``
or one ``driver.convergence_study``) until the next call would end after
``--seconds``, at least twice.  Every call's outputs are checked.  With
``--trace 0`` the last line of output reports the end-to-end metrics; with
``--trace 1`` every second call runs traced (for the convergence study, a
replay of its reference member in this process) and the last line reports
the per-layer metrics of the traced calls.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give the
machine facts, every call and every metric for a human reader.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

import tracing
from workloads import (WORKLOADS, check_run, check_study, eps_for_seed,
                       load_reference, make_config)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CALLS = 2
SETUP_REPLAYS = 5    # one-step in-process runs per study call, for setup_s

E2E_UNITS = {"wall_s": "s", "ms_per_step": "ms", "setup_s": "s",
             "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics: "/step" marks a mean over loop iterations of traced
# calls; the others are per call (set-up, oracle, pool, tracing overhead)
LAYER_UNITS = {
    "bessel.s": "s/step", "bessel.k0.evals": "count/step",
    "bessel.k1.evals": "count/step", "bessel.i0.evals": "count/step",
    "bessel.i1.evals": "count/step",
    "kernels.helmholtz_self.s": "s/step", "kernels.helmholtz_cross.s": "s/step",
    "kernels.laplace_self.s": "s/step", "kernels.laplace_cross.s": "s/step",
    "kernels.blocks.calls": "count/step", "kernels.entries": "count/step",
    "solver.solve.s": "s/step", "solver.solve_self.s": "s/step",
    "solver.static_blocks.s": "s", "solver.system_glue.s": "s/step",
    "solver.gmres.s": "s/step", "solver.gmres.calls": "count/step",
    "solver.iters.nutrient": "count/step", "solver.iters.pressure": "count/step",
    "solver.proximity.s": "s/step",
    "geometry.samples.s": "s/step", "geometry.gap.s": "s/step",
    "geometry.gap.calls": "count/step", "geometry.self_gap.s": "s/step",
    "geometry.shape_diagnostics.s": "s/step",
    "geometry.initial_interface.s": "s",
    "stepping.step.s": "s/step", "stepping.step.calls": "count/step",
    "linear.oracle.s": "s",
    "driver.io.s": "s/step", "driver.io.bytes": "B",
    "driver.loop_self.s": "s/step",
    "driver.pool.critical_path_s": "s", "driver.pool.busy_s": "s",
    "driver.pool.efficiency": "ratio", "driver.pool.overhead_s": "s",
    "trace.step.s": "s/step", "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def import_program():
    """Import tumorbim from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "tumorbim" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        sys.exit(f"error: {ROOT} holds no tumorbim sources (src/tumorbim) "
                 "and presets (configs/)")
    sys.path.insert(0, str(src))
    import tumorbim
    from tumorbim import config, driver, geometry, kernels, linear, solver
    if Path(tumorbim.__file__).resolve().parent != src / "tumorbim":
        sys.exit(f"error: imported tumorbim from {tumorbim.__file__}, not {src}")
    return dict(config=config, driver=driver, geometry=geometry,
                kernels=kernels, linear=linear, solver=solver)


@contextmanager
def first_solve_probe(field_solver):
    """Stamp the clock at the first FieldSolver.solve call; restore on exit."""
    original = field_solver.__dict__["solve"]
    stamps = []

    def solve(self, gamma):
        if not stamps:
            stamps.append(time.perf_counter())
        return original(self, gamma)

    solve.__wrapped__ = original
    field_solver.solve = solve
    try:
        yield stamps
    finally:
        field_solver.solve = original


def _cpu_now():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """Runs one workload's calls and keeps their measurements."""

    def __init__(self, tb, workload, eps_init, out_root):
        self.tb = tb
        self.w = workload
        self.cfg = make_config(tb["config"], ROOT, workload, eps_init)
        self.table = None if workload.is_study else load_reference(workload.name)
        self.out_root = out_root
        self.calls = []          # one dict per timed call
        self.tracer = tracing.Tracer(tb)    # collects the spans of traced calls
        self.oracle_s = []

    # -- one call -------------------------------------------------------------

    def _timed_run(self, cfg, out_dir, traced=False):
        """driver.run with its wall, cpu, entry-to-first-solve and output size.

        A traced call runs inside a Tracer, whose wrappers are removed
        before this returns.
        """
        driver = self.tb["driver"]
        try:
            with first_solve_probe(self.tb["solver"].FieldSolver) as stamp:
                cpu0 = _cpu_now()
                t0 = time.perf_counter()
                if traced:
                    with self.tracer, self.tracer.root():
                        result = driver.run(cfg, out_dir=out_dir)
                else:
                    result = driver.run(cfg, out_dir=out_dir)
                wall = time.perf_counter() - t0
                cpu = _cpu_now() - cpu0
            io_bytes = _dir_bytes(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        setup = stamp[0] - t0 if stamp else wall
        return result, dict(wall_s=wall, cpu_s=cpu, setup_s=setup,
                            io_bytes=io_bytes)

    def _add_call(self, ops, errors, traced, **measured):
        self.calls.append(dict(ops=ops, failed=ops if errors else 0,
                               errors=errors, traced=traced, **measured))

    def run_call(self, traced):
        try:
            result, m = self._timed_run(self.cfg, self.out_root / "run", traced)
        except Exception as exc:     # a crashing call is a failed operation
            self._add_call(1, [f"{type(exc).__name__}: {exc}"], traced)
            return
        t0 = time.perf_counter()
        errors = check_run(self.tb["linear"], self.w, self.cfg, result, self.table)
        self.oracle_s.append(time.perf_counter() - t0)
        steps = result.steps_done + 1
        self._add_call(1, errors, traced, steps=steps,
                       ms_per_step=1e3 * (m["wall_s"] - m["setup_s"]) / steps,
                       member_walls=[result.wall_time], **m)

    def study_call(self):
        out = self.out_root / "study"
        ops = len(self.w.dts)
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            study, results = self.tb["driver"].convergence_study(
                self.cfg, dts=list(self.w.dts), jobs=self.w.jobs, out_root=out)
            wall = time.perf_counter() - t0
            cpu = _cpu_now() - cpu0
            io_bytes = _dir_bytes(out)
        except Exception as exc:
            self._add_call(ops, [f"{type(exc).__name__}: {exc}"], False)
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
        t1 = time.perf_counter()
        errors = check_study(self.tb["linear"], self.w, self.cfg, study, results)
        self.oracle_s.append(time.perf_counter() - t1)
        setups = [self.replay(steps=1)[1]["setup_s"] for _ in range(SETUP_REPLAYS)]
        steps = sum(r.steps_done + 1 for r in results)
        self._add_call(ops, errors, False, wall_s=wall, cpu_s=cpu,
                       setup_s=statistics.median(setups), io_bytes=io_bytes,
                       ms_per_step=1e3 * wall / steps, steps=steps,
                       member_walls=[r.wall_time for r in results])

    def replay(self, steps=None, traced=False):
        """In-process driver.run of the study's reference member.

        A study's members run in forked pool workers whose spans and set-up
        times stay there, so the traced run and setup_s replay the member
        that sets the study's critical path in this process.
        """
        cfg = self.cfg.with_overrides(dt=self.w.dts[-1])
        if steps is not None:
            cfg = cfg.with_overrides(t_final=steps * cfg.dt)
        return self._timed_run(cfg, self.out_root / "replay", traced)

    def warm_up(self):
        """One untimed step: fills per-N caches and lazy imports."""
        cfg = self.cfg.with_overrides(dt=self.w.dts[-1]) if self.w.is_study \
            else self.cfg
        self.tb["driver"].run(cfg.with_overrides(t_final=cfg.dt))

    # -- the measurement loop ---------------------------------------------------

    def measure(self, seconds, trace):
        self.warm_up()
        start = time.perf_counter()
        reserve = 0.0
        min_calls = 1 if self.w.is_study and trace else MIN_CALLS
        while True:
            t0 = time.perf_counter()
            if self.w.is_study:
                self.study_call()
            else:
                self.run_call(traced=trace and len(self.calls) % 2 == 1)
            took = time.perf_counter() - t0
            if self.w.is_study and trace:
                # room for the untraced and the traced replay of the member
                reserve = 2.5 * max(self.calls[-1].get("member_walls") or [0.0])
            elapsed = time.perf_counter() - start
            if len(self.calls) >= min_calls \
                    and elapsed + took + reserve > seconds:
                break
        if self.w.is_study and trace:
            self.replay_walls = (self.replay()[1]["wall_s"],
                                 self.replay(traced=True)[1]["wall_s"])


# ---------------------------------------------------------------------------
# reporting

def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                       "default (one per core)"),
        "loadavg_1min": round(os.getloadavg()[0], 2),
    }


def e2e_metrics(calls):
    ok = [c for c in calls if "wall_s" in c]
    if not ok:
        return {}
    out = {k: statistics.median(c[k] for c in ok)
           for k in ("wall_s", "ms_per_step", "setup_s", "cpu_s")}
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def pool_metrics(calls, jobs):
    """The driver's process pool, per call; a run is a pool of one member."""
    ok = [c for c in calls if "member_walls" in c]
    if not ok:
        return {}
    med = lambda f: statistics.median(f(c) for c in ok)
    return {
        "driver.pool.critical_path_s": med(lambda c: max(c["member_walls"])),
        "driver.pool.busy_s": med(lambda c: sum(c["member_walls"])),
        "driver.pool.efficiency": med(
            lambda c: sum(c["member_walls"]) / (jobs * c["wall_s"])),
        "driver.pool.overhead_s": med(
            lambda c: c["wall_s"] - max(c["member_walls"])),
    }


def layer_report(bench):
    """Per-layer metrics of a traced run, keyed by name."""
    out = tracing.layer_metrics(bench.tracer.spans)
    calls = [c for c in bench.calls if "wall_s" in c]
    if bench.w.is_study:
        plain, traced = bench.replay_walls
    else:
        plain = statistics.median(c["wall_s"] for c in calls if not c["traced"])
        traced = statistics.median(c["wall_s"] for c in calls if c["traced"])
    out["driver.io.bytes"] = statistics.median(c["io_bytes"] for c in calls)
    out["linear.oracle.s"] = statistics.median(bench.oracle_s)
    out.update(pool_metrics(calls, bench.w.jobs))
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_frac"] = (traced - plain) / plain
    return out


def report(bench, trace):
    """(values, units) of a finished measurement: per-layer when traced."""
    if trace:
        return layer_report(bench), LAYER_UNITS
    return e2e_metrics(bench.calls), E2E_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tb = import_program()
    workload = WORKLOADS[args.workload]
    eps = eps_for_seed(workload, args.seed)
    out_root = ROOT / ".perfbench-out" / str(os.getpid())
    bench = Bench(tb, workload, eps, out_root)
    try:
        bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if out_root.parent.exists() and not any(out_root.parent.iterdir()):
            out_root.parent.rmdir()
    leftover = tracing.installed_wrappers(tb)
    if leftover:
        sys.exit(f"error: tracing wrappers left installed: {leftover}")

    attempted = sum(c["ops"] for c in bench.calls)
    failed = sum(c["failed"] for c in bench.calls)
    values, units = report(bench, bool(args.trace))
    facts = machine_facts()
    walls = [c["wall_s"] for c in bench.calls if "wall_s" in c]
    if walls:
        facts["in_run_wall_spread"] = round(
            (max(walls) - min(walls)) / statistics.median(walls), 4)
        facts["cpu_per_wall"] = round(
            sum(c["cpu_s"] for c in bench.calls if "cpu_s" in c) / sum(walls), 3)
    print("machine " + json.dumps(facts))
    print(f"workload {workload.name} seed {args.seed} eps_init {eps!r} "
          f"trace {args.trace}")
    for i, c in enumerate(bench.calls):
        desc = " ".join(f"{k}={c[k]:.4f}" for k in
                        ("wall_s", "setup_s", "ms_per_step", "cpu_s") if k in c)
        print(f"call {i}{' traced' if c['traced'] else ''}: {desc} "
              f"ops={c['ops']} failed={c['failed']} {'; '.join(c['errors'])}")
    print(f"fail_frac = {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    missing = [k for k in units if k not in values]
    if missing:
        sys.exit(f"error: no measurement for {missing}")
    for k, unit in units.items():
        print(f"{k} = {values[k]:.6g} {unit}")
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
