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
import warnings
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, SimulationConfig
# min_self_gap stays importable for perfbench/tracing.py, which wraps it
# here; the self gap comes from FieldSolver.interface_geometry
from .geometry import (InterfaceState, area, initial_interface,  # noqa: F401
                       min_gap_between, min_self_gap, radial_boundary,
                       shape_diagnostics, write_snapshot)
from .solver import (FieldSolver, SolverFailure, hydrostatic_pressure,
                     normal_velocity, proximity_warning)
from .stepping import SolverCollapse, StepperHistory, first_step, step

CHECKPOINT_VERSION = 2

RECORD_COLUMNS = ("time", "area", "r_eff", "delta_over_r",
                  "gmres_nutrient", "gmres_pressure", "min_gap", "max_v")


class RunStatus(enum.IntEnum):
    """Run outcome; values double as process exit codes."""

    COMPLETE = 0
    PROXIMITY_HALT = 2
    SOLVER_FAILURE = 3


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
        with open(path, "w") as fh:
            fh.write("\t".join(RECORD_COLUMNS) + "\n")
            for row in self.rows:
                fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def read(cls, path):
        rec = cls()
        with open(path) as fh:
            header = fh.readline().split()
            if tuple(header) != RECORD_COLUMNS:
                raise ValueError(f"unrecognized record header in {path}")
            for line in fh:
                rec.rows.append(tuple(float(v) for v in line.split()))
        return rec


@dataclass
class RunResult:
    status: RunStatus
    record: RunRecord
    state: InterfaceState
    message: str = ""
    wall_time: float = 0.0
    steps_done: int = 0
    peak_gmres: int = 0


def _intervals_to_steps(interval, dt, label):
    if interval == 0:
        return 0
    steps = interval / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ConfigError(f"{label} = {interval} is not a multiple of dt = {dt}")
    return int(round(steps))


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
    with open(tdir / f"gamma0_{tag}.txt", "w") as fh:
        fh.write(f"# t = {t:.17g}\nalpha\tdsigma_dn0\tp_hydrostatic\n")
        for a, f1, f2 in zip(gamma0.alpha, fields.dsigma_dn0, p_hydro):
            fh.write(f"{a:.17g}\t{f1:.17g}\t{f2:.17g}\n")
    with open(tdir / f"gamma_{tag}.txt", "w") as fh:
        fh.write(f"# t = {t:.17g}\nalpha\tsigma\tminus_dpbar_dn\n")
        for a, f1, f2 in zip(gamma.alpha, fields.sigma_gamma, -fields.dpbar_dn):
            fh.write(f"{a:.17g}\t{f1:.17g}\t{f2:.17g}\n")


def save_checkpoint(path, config, state, history, step_index):
    """Binary checkpoint carrying the exact stepper state."""
    cfg_json = json.dumps(config.__dict__, sort_keys=True)
    blobs = dict(version=np.array([CHECKPOINT_VERSION]),
                 theta=state.theta,
                 s_alpha=np.array([state.s_alpha]),
                 ref=np.asarray(state.ref_point, dtype=float),
                 time=np.array([state.time]),
                 step_index=np.array([step_index]),
                 config_json=np.array(cfg_json))
    if history is not None:
        blobs.update(hist_m=np.array([history.m]),
                     hist_nhat=history.n_hat,
                     hist_v0=np.array([history.v0]),
                     hist_normal0=history.normal0,
                     hist_s=np.array([history.s_alpha]))
    np.savez(path, **blobs)


def load_checkpoint(path):
    """Returns (config, state, history, step_index); validates the contents."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            data = {k: blob[k] for k in blob.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc

    def corrupted(what):
        return ConfigError(f"checkpoint {path} is corrupted: {what}")

    def scalar(key):
        if data[key].size != 1:
            raise corrupted(f"{key} holds {data[key].size} values, not 1")
        return data[key].ravel()[0]

    for key in ("version", "theta", "s_alpha", "ref", "time", "step_index",
                "config_json"):
        if key not in data:
            raise corrupted(f"missing {key}")
    version = int(scalar("version"))
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version} is not supported "
                          f"(expected {CHECKPOINT_VERSION})")
    try:
        config = SimulationConfig(**json.loads(str(data["config_json"])))
    except (TypeError, ValueError) as exc:
        raise corrupted(f"bad config: {exc}") from exc
    if data["theta"].size != config.n:
        raise ConfigError("checkpoint is corrupted: node count mismatch")
    if not np.all(np.isfinite(data["theta"])):
        raise corrupted("theta has non-finite entries")
    s_alpha = float(scalar("s_alpha"))
    if not 0.0 < s_alpha < np.inf:
        raise corrupted(f"s_alpha = {s_alpha} is not positive and finite")
    if data["ref"].size != 2:
        raise corrupted(f"ref holds {data['ref'].size} values, not 2")
    state = InterfaceState(theta=data["theta"], s_alpha=s_alpha,
                           ref_point=tuple(data["ref"]),
                           time=float(scalar("time")))
    history = None
    hist_keys = ("hist_m", "hist_nhat", "hist_v0", "hist_normal0", "hist_s")
    missing = [k for k in hist_keys if k not in data]
    if len(missing) < len(hist_keys):
        if missing:
            raise corrupted(f"history without {', '.join(missing)}")
        history = StepperHistory(m=float(scalar("hist_m")),
                                 n_hat=data["hist_nhat"],
                                 v0=float(scalar("hist_v0")),
                                 normal0=data["hist_normal0"],
                                 s_alpha=float(scalar("hist_s")))
    return config, state, history, int(scalar("step_index"))


def _run_loop(config, state, history, start_index, out):
    """Shared body of run() and resume()."""
    params = config.params()
    gamma0 = radial_boundary(config.r0, config.eps0, config.k0, config.n_inner)
    solver = FieldSolver(gamma0, params)
    n_steps = int(round(config.t_final / config.dt))
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * config.t_final:
        raise ConfigError("t_final must be an integer multiple of dt")
    rec_every = _intervals_to_steps(config.record_interval, config.dt,
                                    "record_interval") or 1
    snap_every = _intervals_to_steps(config.snapshot_interval, config.dt,
                                     "snapshot_interval")
    trace_every = _intervals_to_steps(config.trace_interval, config.dt,
                                      "trace_interval")

    record = RunRecord()
    status = RunStatus.COMPLETE
    message = "reached t_final"
    peak = 0
    near_times = []     # times of the near-contact solves
    t_start = _time.perf_counter()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "snapshots").mkdir(exist_ok=True)
        write_snapshot(out / "gamma0.txt", gamma0)

    i = start_index
    while True:
        gamma = state.samples()
        gap0 = min_gap_between(gamma0, gamma)
        gap = min(gap0, solver.interface_geometry(gamma).gap)
        spacing = 2.0 * np.pi * state.s_alpha / state.n
        if gap < config.min_gap_factor * spacing:
            status = RunStatus.PROXIMITY_HALT
            message = (f"boundary gap {gap:.4e} fell below "
                       f"{config.min_gap_factor} node spacings at t = {state.time:.6g}")
            if out is not None:
                write_snapshot(out / "snapshots" / f"snap_{i:08d}.txt", state)
            break
        try:
            fields = solver.solve(gamma)
        except SolverFailure as exc:
            status = RunStatus.SOLVER_FAILURE
            message = f"step {i}: {exc}"
            break
        v = normal_velocity(fields, gamma, params)
        peak = max(peak, fields.gmres_iters_nutrient, fields.gmres_iters_pressure)
        if proximity_warning(gap0, gamma):
            near_times.append(state.time)

        if i % rec_every == 0 or i == n_steps:
            r_eff, delta_over_r, _ = shape_diagnostics(gamma, config.shape_mode)
            record.append(time=state.time, area=area(gamma), r_eff=r_eff,
                          delta_over_r=delta_over_r,
                          gmres_nutrient=fields.gmres_iters_nutrient,
                          gmres_pressure=fields.gmres_iters_pressure,
                          min_gap=gap, max_v=float(np.max(np.abs(v))))
        if out is not None:
            if i == 0 or i == n_steps or (snap_every and i % snap_every == 0):
                write_snapshot(out / "snapshots" / f"snap_{i:08d}.txt", state)
            if i == n_steps or (trace_every and i % trace_every == 0):
                emit_traces(out, gamma0, gamma, fields, params, state.time,
                            tag=f"{i:08d}")
        if i >= n_steps:
            break
        try:
            if history is None:
                state, history = first_step(state, v, config.dt)
            else:
                state, history = step(state, v, history, config.dt)
        except SolverCollapse as exc:
            status = RunStatus.SOLVER_FAILURE
            message = f"step {i}: {exc}"
            break
        i += 1

    wall = _time.perf_counter() - t_start
    result = RunResult(status=status, record=record, state=state,
                       message=message, wall_time=wall, steps_done=i,
                       peak_gmres=peak)
    if out is not None:
        record.write(out / "record.tsv")
        save_checkpoint(out / "checkpoint.npz", config, state, history, i)
        summary = dict(status=int(status), status_name=status.name,
                       message=message, final_time=state.time,
                       steps_done=i, wall_time=wall, peak_gmres=peak,
                       proximity_steps=len(near_times),
                       first_proximity_time=near_times[0] if near_times else None,
                       version=__version__)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result


def run(config, out_dir=None):
    """Execute a simulation from t = 0; optionally write artifacts."""
    out = Path(out_dir) if out_dir else (Path(config.out_dir) if config.out_dir
                                         else None)
    state = initial_interface(config.r_init, config.eps_init, config.k_init,
                              config.n)
    return _run_loop(config, state, None, 0, out)


def resume(checkpoint_path, t_final=None, out_dir=None):
    """Continue a checkpointed run; reproduces the uninterrupted run exactly."""
    config, state, history, step_index = load_checkpoint(checkpoint_path)
    if t_final is not None:
        config = replace(config, t_final=t_final)
    out = Path(out_dir) if out_dir else None
    return _run_loop(config, state, history, step_index, out)


def reemit_traces(checkpoint_path, out_dir):
    """Re-solve the fields at a checkpointed state and write its trace files."""
    config, state, _, step_index = load_checkpoint(checkpoint_path)
    params = config.params()
    gamma0 = radial_boundary(config.r0, config.eps0, config.k0, config.n_inner)
    gamma = state.samples()
    fields = FieldSolver(gamma0, params).solve(gamma)
    emit_traces(out_dir, gamma0, gamma, fields, params, state.time,
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

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# labels: " + " ".join(str(v) for v in self.labels) + "\n")
            cols = ["time"] + [f"e{i + 1}" for i in range(self.errors.shape[0])] \
                + [f"C{i + 1}" for i in range(self.rates.shape[0])]
            fh.write("\t".join(cols) + "\n")
            for j, t in enumerate(self.times):
                vals = [t] + list(self.errors[:, j]) + list(self.rates[:, j])
                fh.write("\t".join(f"{v:.17g}" for v in vals) + "\n")


def _run_for_study(args):
    config, out_dir = args
    return run(config, out_dir=out_dir)


def convergence_study(config, dts=None, ns=None, jobs=1, out_root=None):
    """Refinement study against the finest member (listed last).

    Exactly one of `dts` or `ns` selects the refinement family.  All
    members share the record cadence, so rows align by index; errors are
    |area_n(t) - area_ref(t)| and the rates between consecutive members
    are log2(e_n / e_{n+1}).
    """
    if (dts is None) == (ns is None):
        raise ConfigError("specify exactly one of dts or ns")
    if config.record_interval <= 0:
        raise ConfigError("convergence studies need record_interval > 0")
    values = list(dts if dts is not None else ns)
    if len(values) < 2:
        raise ConfigError("need at least two members (reference last)")
    members = []
    for v in values:
        members.append(config.with_overrides(dt=v) if dts is not None
                       else config.with_overrides(n=int(v), n0=0))
    out_dirs = [None] * len(members)
    if out_root is not None:
        root = Path(out_root)
        key = "dt" if dts is not None else "N"
        out_dirs = [root / f"{key}_{v}" for v in values]

    work = list(zip(members, out_dirs))
    if jobs > 1:
        # submit the longest members (steps x N^2) first, so that no worker is
        # left with two long ones; results come back in the given order
        cost = [m.t_final / m.dt * m.n ** 2 for m in members]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {k: pool.submit(_run_for_study, work[k])
                       for k in sorted(range(len(work)), key=lambda k: -cost[k])}
            results = [futures[k].result() for k in range(len(work))]
    else:
        results = [_run_for_study(w) for w in work]

    n_rows = min(len(r.record.rows) for r in results)
    for r in results:
        if r.status is not RunStatus.COMPLETE:
            warnings.warn(f"study member halted early: {r.message}",
                          RuntimeWarning, stacklevel=2)
    times = results[-1].record.column("time")[:n_rows]
    areas = [r.record.column("area")[:n_rows] for r in results]
    errors = np.array([np.abs(a - areas[-1]) for a in areas[:-1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log2(errors[:-1] / errors[1:])
    return ConvergenceStudy(labels=values, times=times, errors=errors,
                            rates=rates), results
