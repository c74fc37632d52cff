"""Simulation orchestration: the main loop, studies, traces and checkpoints.

A run initializes equal-arclength meshes, then repeats: solve the two
boundary-integral systems, form the normal velocity, advance the interface.
Each run writes a time-series record, periodic snapshots and boundary-trace
files, and a final checkpoint.  Everything is deterministic, so identical
configurations reproduce records bit-for-bit and a resumed run matches an
uninterrupted one.
"""

import enum
import json
import time as _time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, SimulationConfig
# min_self_gap stays importable for perfbench/tracing.py, which wraps it
# here; the self gap comes from FieldSolver.interface_geometry
from .geometry import (InterfaceState, ReparamError, area,  # noqa: F401
                       initial_interface, min_gap_between, min_self_gap,
                       radial_boundary, shape_diagnostics)
from .solver import (FieldSolver, SolverFailure, hydrostatic_pressure,
                     normal_velocity, proximity_warning, sigma_bounds_violation)
from .stepping import SolverCollapse, StepperHistory, first_step, step

CHECKPOINT_VERSION = 3

# The version-3 checkpoint: each array's dtype kind, its shape in N, N0 and
# the k <= 2 solutions that FieldSolver keeps, and whether its entries must
# be positive (the metrics).  The hist_* arrays hold the StepperHistory
# fields in order, all or none.
CHECKPOINT_LAYOUT = {
    "version": (int, (1,), False), "theta": (float, ("N",), False),
    "s_alpha": (float, (1,), True), "ref": (float, (2,), False),
    "time": (float, (1,), False), "step_index": (int, (1,), False),
    "solutions": (float, ("k <= 2", 2, "N0 + N"), False),
    "config_json": (str, (), False),
    "hist_m": (float, (1,), False), "hist_nhat": (complex, ("N/2 + 1",), False),
    "hist_v0": (float, (1,), False), "hist_normal0": (float, (2,), False),
    "hist_s": (float, (1,), True)}
_HISTORY_KEYS = tuple(key for key in CHECKPOINT_LAYOUT if key.startswith("hist_"))

RECORD_COLUMNS = ("time", "area", "r_eff", "delta_over_r",
                  "gmres_nutrient", "gmres_pressure", "min_gap", "max_v")


class RunStatus(enum.IntEnum):
    """Run outcome; values double as process exit codes."""

    COMPLETE = 0
    PROXIMITY_HALT = 2
    SOLVER_FAILURE = 3
    CONFIG_ERROR = 4


@dataclass
class RunRecord:
    """Per-step diagnostic rows."""

    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append(tuple(kw[c] for c in RECORD_COLUMNS))

    def column(self, name):
        idx = RECORD_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def write(self, path):
        write_table(path, RECORD_COLUMNS, self.rows)


@dataclass
class RunResult:
    status: RunStatus
    record: RunRecord
    state: InterfaceState
    message: str = ""
    wall_time: float = 0.0
    steps_done: int = 0
    peak_gmres: int = 0


def write_table(path, columns, rows, comments=()):
    """Tab-separated text: a `#` line per comment, the column names, then
    one line per row with every value at .17g."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")


def write_snapshot(path, samples, time, s_alpha):
    """Interface markers at `time`: N, t and s_alpha stamps, then x, y."""
    write_table(path, ("x", "y"), zip(samples.x, samples.y),
                [f"N = {samples.n}", f"t = {time:.17g}", f"s_alpha = {s_alpha:.17g}"])


def _whole(ratio):
    """`ratio` as an int, or None where it is no whole number to within
    1e-9 relative (an overflowing or NaN ratio is none either)."""
    if not abs(ratio) < np.inf or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        return None
    return int(round(ratio))


# the config's intervals that a run counts in time steps
CADENCES = ("t_final", "record_interval", "snapshot_interval", "trace_interval")


def _steps(config, name):
    """The config's interval `name` in time steps."""
    interval = getattr(config, name)
    steps = _whole(interval / config.dt)
    if steps is None:
        raise ConfigError(f"{name} = {interval} is not a multiple of dt = {config.dt}")
    return steps


class StepFailure(RuntimeError):
    """A solve outside the run loop failed as a step would (exit 3)."""


@contextmanager
def _step_guard(failures):
    """Runs a step's work with float errors raised.  A solver failure, a
    float error or an I0 overflow (ValueError) ends the block and is
    appended to `failures`."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (SolverFailure, SolverCollapse, FloatingPointError,
            ValueError) as exc:
        failures.append(exc)


def _field_solver(config):
    """The run's solver; its static blocks must stay in the float range."""
    gamma0 = radial_boundary(config.r0, config.eps0, config.k0, config.n_inner)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return FieldSolver(gamma0, config.params())
    except FloatingPointError as exc:
        raise ConfigError(f"inner boundary R0 = {config.r0:g}: {exc}") from exc


def emit_traces(out_dir, gamma0, gamma, fields, params, t, tag):
    """Write the four solved boundary traces for time level t to files
    named by `tag`.

    Inner-boundary file: nutrient flux and hydrostatic pressure; outer file:
    nutrient trace and the (sign-flipped) modified-pressure flux.
    """
    tdir = Path(out_dir) / "traces"
    tdir.mkdir(parents=True, exist_ok=True)
    p_hydro = hydrostatic_pressure(fields.pbar_gamma0, np.full(gamma0.n, params.sigma_n),
                                   gamma0.x, gamma0.y, params)
    stamp = [f"t = {t:.17g}"]
    write_table(tdir / f"gamma0_{tag}.txt", ("alpha", "dsigma_dn0", "p_hydrostatic"),
                zip(gamma0.alpha, fields.dsigma_dn0, p_hydro), stamp)
    write_table(tdir / f"gamma_{tag}.txt", ("alpha", "sigma", "minus_dpbar_dn"),
                zip(gamma.alpha, fields.sigma_gamma, -fields.dpbar_dn), stamp)


def save_checkpoint(path, config, state, history, step_index, solutions):
    """Binary checkpoint, laid out as CHECKPOINT_LAYOUT, carrying the exact
    stepper state and the solver's `solutions` that the solve of step
    `step_index` starts from."""
    values = dict(version=CHECKPOINT_VERSION, theta=state.theta,
                  s_alpha=state.s_alpha, ref=state.ref_point, time=state.time,
                  step_index=step_index, solutions=solutions,
                  config_json=json.dumps(config.__dict__, sort_keys=True))
    if history is not None:
        values.update(zip(_HISTORY_KEYS, vars(history).values()))
    np.savez(path, **{key: np.array(values[key], dtype=kind, ndmin=len(shape))
                      for key, (kind, shape, _) in CHECKPOINT_LAYOUT.items()
                      if key in values})


def load_checkpoint(path):
    """Returns (config, state, history, step_index, solutions); every array
    must fit its row of CHECKPOINT_LAYOUT."""
    try:
        # an open file stays ours to close, also when np.load fails on it
        with open(path, "rb") as fh:
            blob = np.load(fh, allow_pickle=False)
            if not isinstance(blob, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with blob:
                data = {k: blob[k] for k in blob.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc

    def corrupted(what):
        return ConfigError(f"checkpoint {path} is corrupted: {what}")

    def text(shape):
        return str(shape[0]) if len(shape) == 1 else f"({', '.join(map(str, shape))})"

    sizes = {}   # the layout's shape symbols, once the config is read

    def checked(key):
        """data[key], or its one value, once it fits its layout row."""
        if key not in data:
            raise corrupted(("history without " if key in _HISTORY_KEYS
                             else "missing ") + key)
        kind, shape, positive = CHECKPOINT_LAYOUT[key]
        value, want = data[key], tuple(sizes.get(d, d) for d in shape)
        if value.dtype.kind != np.dtype(kind).kind:
            raise corrupted(f"{key} holds {value.dtype} values, not {kind.__name__}")
        if value.ndim != len(want) or not all(
                n == m or m == "k <= 2" and n <= 2 for n, m in zip(value.shape, want)):
            raise corrupted(f"{key} holds {text(value.shape)} values, not {text(want)}")
        if positive and not 0.0 < value.item() < np.inf:
            raise corrupted(f"{key} = {value.item()} is not positive and finite")
        if kind is not str and not np.all(np.isfinite(value)):
            raise corrupted(f"{key} has non-finite entries")
        return value.item() if shape in ((), (1,)) else value

    version = checked("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version} is not supported "
                          f"(expected {CHECKPOINT_VERSION})")
    cfg_json = checked("config_json")
    try:
        config = SimulationConfig(**json.loads(cfg_json))
    except (TypeError, ValueError) as exc:
        raise corrupted(f"bad config: {exc}") from exc
    sizes.update({"N": config.n, "N0 + N": config.n_inner + config.n,
                  "N/2 + 1": config.n // 2 + 1})
    has_history = any(key in data for key in _HISTORY_KEYS)   # all or none
    arrays = {key: checked(key) for key in CHECKPOINT_LAYOUT
              if has_history or key not in _HISTORY_KEYS}
    time, step_index = arrays["time"], arrays["step_index"]
    if step_index < 0 or _whole(time / config.dt) != step_index:
        raise corrupted(f"step_index = {step_index} is not the step count "
                        f"t / dt = {time / config.dt:.6g}")
    state = InterfaceState(theta=arrays["theta"], s_alpha=arrays["s_alpha"],
                           ref_point=tuple(arrays["ref"]), time=time)
    history = (StepperHistory(*(arrays[key] for key in _HISTORY_KEYS))
               if has_history else None)
    return config, state, history, step_index, arrays["solutions"]


def _solve_counts(iterations):
    """Number and mean GMRES counts of a list of (nutrient, pressure) counts."""
    means = np.mean(iterations, axis=0).tolist() if iterations else [None, None]
    return dict(count=len(iterations), mean_gmres_nutrient=means[0],
                mean_gmres_pressure=means[1])


def _run_loop(config, state, history, start_index, out, solutions):
    """Shared body of run() and resume().

    The recorded steps, those on the record cadence and the final one, solve
    from zero, so that every row's GMRES counts and the final trace files
    are the zero-start ones; the others solve warm, from the solver's
    previous solutions.
    """
    solver = _field_solver(config)
    solver.solutions = solutions
    gamma0, params = solver.gamma0, solver.params
    n_steps, rec_every, snap_every, trace_every = (_steps(config, name)
                                                   for name in CADENCES)
    rec_every = rec_every or 1

    record = RunRecord()
    status = RunStatus.COMPLETE
    message = "reached t_final"
    peak = 0
    worst = dict(nutrient=0.0, pressure=0.0)   # largest true residuals
    sigma_violation = 0.0   # largest distance of sigma on Gamma outside [0, 1]
    near_times = []     # times of the near-contact solves
    iterations = {False: [], True: []}  # GMRES counts of cold and warm solves
    t_start = _time.perf_counter()
    if out is not None:
        (out / "snapshots").mkdir(parents=True, exist_ok=True)
        write_snapshot(out / "gamma0.txt", gamma0, 0.0,
                       float(np.mean(gamma0.s_alpha)))

    i = start_index
    while True:
        # what step i's solve starts from, for a checkpoint of step i
        solutions = solver.solutions
        gamma = state.samples()
        gap0 = min_gap_between(gamma0, gamma)
        gap = min(gap0, solver.interface_geometry(gamma).gap)
        spacing = 2.0 * np.pi * state.s_alpha / state.n
        halt = gap < config.min_gap_factor * spacing
        if halt:
            status = RunStatus.PROXIMITY_HALT
            message = (f"boundary gap {gap:.4e} fell below "
                       f"{config.min_gap_factor} node spacings at t = {state.time:.6g}")
        recorded = i % rec_every == 0 or i == n_steps
        solver.warm = not recorded
        failed = []
        # a halting step writes only its snapshot
        with _step_guard(failed):
            if not halt:
                fields = solver.solve(gamma)
                v = normal_velocity(fields, gamma, params)
                peak = max(peak, fields.gmres_iters_nutrient,
                           fields.gmres_iters_pressure)
                iterations[solver.warm].append(
                    (fields.gmres_iters_nutrient, fields.gmres_iters_pressure))
                worst["nutrient"] = max(worst["nutrient"],
                                        fields.residual_nutrient)
                worst["pressure"] = max(worst["pressure"],
                                        fields.residual_pressure)
                sigma_violation = max(sigma_violation,
                                      sigma_bounds_violation(fields, params))
                if proximity_warning(gap0, gamma):
                    near_times.append(state.time)
                if recorded:
                    r_eff, delta_over_r, _ = shape_diagnostics(
                        gamma, config.shape_mode)
                    record.append(time=state.time, area=area(gamma),
                                  r_eff=r_eff, delta_over_r=delta_over_r,
                                  gmres_nutrient=fields.gmres_iters_nutrient,
                                  gmres_pressure=fields.gmres_iters_pressure,
                                  min_gap=gap, max_v=float(np.max(np.abs(v))))
                if out is not None and (i == n_steps or
                                        (trace_every and i % trace_every == 0)):
                    emit_traces(out, gamma0, gamma, fields, params,
                                state.time, tag=f"{i:08d}")
            # after the solve: perfbench's setup_s ends at the first solve
            if out is not None and (halt or i == 0 or i == n_steps
                                    or (snap_every and i % snap_every == 0)):
                write_snapshot(out / "snapshots" / f"snap_{i:08d}.txt",
                               gamma, state.time, state.s_alpha)
            if halt or i >= n_steps:
                break
            if history is None:
                state, history = first_step(state, v, config.dt)
            else:
                state, history = step(state, v, history, config.dt)
        if failed:
            status = RunStatus.SOLVER_FAILURE
            message = f"step {i}: {failed[0]}"
            break
        i += 1

    wall = _time.perf_counter() - t_start
    result = RunResult(status=status, record=record, state=state,
                       message=message, wall_time=wall, steps_done=i,
                       peak_gmres=peak)
    if out is not None:
        record.write(out / "record.tsv")
        save_checkpoint(out / "checkpoint.npz", config, state, history, i,
                        solutions)
        summary = dict(status=int(status), status_name=status.name,
                       message=message, final_time=state.time,
                       steps_done=i, wall_time=wall, peak_gmres=peak,
                       max_residual_nutrient=worst["nutrient"],
                       max_residual_pressure=worst["pressure"],
                       max_sigma_violation=sigma_violation,
                       proximity_steps=len(near_times),
                       first_proximity_time=near_times[0] if near_times else None,
                       cold_solves=_solve_counts(iterations[False]),
                       warm_solves=_solve_counts(iterations[True]),
                       version=__version__)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result


def run(config, out_dir=None):
    """Execute a simulation from t = 0; optionally write artifacts."""
    out = Path(out_dir) if out_dir else (Path(config.out_dir) if config.out_dir
                                         else None)
    rule = (config.r_init, config.eps_init, config.k_init, config.n)
    try:
        state = initial_interface(*rule)
    except ReparamError as exc:
        raise ConfigError("R_init, eps_init, k_init = {:g}, {:g}, {} at N = {}: "
                          .format(*rule) + str(exc)) from exc
    return _run_loop(config, state, None, 0, out,
                     np.empty((0, 2, config.n_inner + config.n)))


def resume(checkpoint_path, t_final=None, out_dir=None):
    """Continue a checkpointed run; reproduces the uninterrupted run exactly."""
    config, state, history, step_index, solutions = load_checkpoint(checkpoint_path)
    if t_final is not None:
        config = replace(config, t_final=t_final)
    if _steps(config, "t_final") < step_index:
        raise ConfigError(f"t_final = {config.t_final:g} is before the "
                          f"checkpoint's t = {state.time:g}")
    out = Path(out_dir) if out_dir else None
    return _run_loop(config, state, history, step_index, out, solutions)


def reemit_traces(checkpoint_path, out_dir):
    """Re-solve the fields at a checkpointed state, from zero, and write its
    trace files.  A solve that fails as a run's step would raises
    StepFailure."""
    config, state, _, step_index, _ = load_checkpoint(checkpoint_path)
    solver = _field_solver(config)
    gamma = state.samples()
    failed = []
    with _step_guard(failed):
        fields = solver.solve(gamma)
    if failed:
        raise StepFailure(f"step {step_index}: {failed[0]}") from failed[0]
    emit_traces(out_dir, solver.gamma0, gamma, fields, solver.params, state.time,
                tag=f"{step_index:08d}")
    return fields


# ---------------------------------------------------------------------------
# convergence studies

@dataclass
class ConvergenceStudy:
    """Errors against the finest member and dyadic convergence rates."""

    labels: list            # coarse-to-fine values of dt or N (reference last)
    times: np.ndarray
    errors: np.ndarray      # shape (len(labels) - 1, n_times)
    rates: np.ndarray       # shape (len(labels) - 2, n_times)
    halted: list            # (label, message) of members that stopped early

    def write(self, path):
        comments = ["labels: " + " ".join(str(v) for v in self.labels)]
        if self.halted:
            comments.append("halted: " + "; ".join(f"{label}: {message}"
                                                   for label, message in self.halted))
        cols = ["time"] + [f"e{i + 1}" for i in range(self.errors.shape[0])] \
            + [f"C{i + 1}" for i in range(self.rates.shape[0])]
        write_table(path, cols, np.vstack([self.times, self.errors, self.rates]).T,
                    comments)


def convergence_study(config, dts=None, ns=None, jobs=1, out_root=None,
                      out=None):
    """Refinement study against the finest member (listed last).

    Exactly one of `dts` or `ns` selects the refinement family.  All
    members share the record cadence, so rows align by index; errors are
    |area_n(t) - area_ref(t)| and the rates between consecutive members
    are log2(e_n / e_{n+1}).  Members that stop before t_final are listed in
    the study's `halted`; the rows end with the shortest record.  The study
    table goes to `out` if given.  It and `out_root` are made once every
    member's config and step counts are valid and before the first member
    runs, so a config error leaves neither and an unwritable one fails at
    once.
    """
    if (dts is None) == (ns is None):
        raise ConfigError("specify exactly one of dts or ns")
    if config.record_interval <= 0:
        raise ConfigError("convergence studies need record_interval > 0")
    values = list(dts if dts is not None else ns)
    if len(values) < 2:
        raise ConfigError("need at least two members (reference last)")
    key = "dt" if dts is not None else "N"
    members = [config.with_overrides(dt=v) if dts is not None
               else config.with_overrides(n=int(v), n0=0) for v in values]
    for member in members:
        for name in CADENCES:
            _steps(member, name)
    if out is not None:
        open(out, "a").close()
    if out_root is not None:
        Path(out_root).mkdir(parents=True, exist_ok=True)
    work = [(m, None if out_root is None else Path(out_root) / f"{key}_{v}")
            for m, v in zip(members, values)]
    if jobs > 1:
        # submit the longest members (steps x N^2) first, so that no worker is
        # left with two long ones; results come back in the given order.  A
        # forked pool starts all its workers at the first submit, so it gets
        # no more of them than there are members
        cost = [m.t_final / m.dt * m.n ** 2 for m in members]
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            futures = {k: pool.submit(run, *work[k])
                       for k in sorted(range(len(work)), key=lambda k: -cost[k])}
            results = [futures[k].result() for k in range(len(work))]
    else:
        results = [run(*w) for w in work]

    n_rows = min(len(r.record.rows) for r in results)
    halted = [(v, r.message) for v, r in zip(values, results)
              if r.status is not RunStatus.COMPLETE]
    times = results[-1].record.column("time")[:n_rows]
    areas = [r.record.column("area")[:n_rows] for r in results]
    errors = np.array([np.abs(a - areas[-1]) for a in areas[:-1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log2(errors[:-1] / errors[1:])
    study = ConvergenceStudy(labels=values, times=times, errors=errors,
                             rates=rates, halted=halted)
    if out is not None:
        study.write(out)
    return study, results
