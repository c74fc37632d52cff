"""The benchmark's workloads: how a seed becomes a config, and the checks.

Every workload loads a shipped preset through ``config.load_config``.  The
seed draws only the initial-interface amplitude ``eps_init``, uniformly
from a band of +-2 % around the workload's value; the program receives the
resulting config and nothing else.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EPS_BAND = 0.02
REFERENCE_FILE = HERE / "reference.json"
# final record entries compared with the seed-commit reference interpolant
REFERENCE_COLUMNS = ("area", "r_eff", "delta_over_r", "min_gap", "max_v")
REFERENCE_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    """One closed-loop call into the program, repeated for the run's length.

    A workload with `dts` is a ``driver.convergence_study``; otherwise it is
    a ``driver.run`` of `steps` time steps that records every step.
    `linear_gap` holds the largest gaps (|r_eff - R|, |delta/R - s|) to the
    linear model at the band centre that the check accepts; they scale with
    (eps_init / centre)^2, as the nonlinear offset does.
    """

    name: str
    preset: str
    n: int
    eps_init: float
    linear_gap: tuple
    steps: int = 0
    dts: tuple = ()
    jobs: int = 1
    order_band: tuple = ()
    overrides: dict = field(default_factory=dict)

    @property
    def is_study(self):
        return bool(self.dts)


# Why each workload is there (BENCHMARK.json and README.md say more):
# fig7-n512: headline N = 512, circular core, 9 + 9 GMRES iterations, so
#   Bessel calls and kernel assembly dominate the step;
# fig11-n512: the same N with a three-fold core and 36 + 24 iterations, so
#   a solver change that trades short solves for long ones shows;
# linear-slice-n64: overhead-bound, checked against the linear model over
#   2 000 steps, so stepper, diagnostics and GMRES call overhead show;
# dt-study-n64: the only workload that reaches the driver's process pool.
WORKLOADS = {w.name: w for w in (
    Workload(name="fig7-n512", preset="fig7", n=512, eps_init=0.1, steps=12,
             overrides=dict(record_interval=0.0),
             linear_gap=(2.0e-3, 3.2e-5)),
    Workload(name="fig11-n512", preset="fig11", n=512, eps_init=0.1, steps=12,
             overrides=dict(record_interval=0.0),
             linear_gap=(2.0e-3, 3.0e-5)),
    Workload(name="linear-slice-n64", preset="fig7", n=64, eps_init=0.01,
             steps=2000, overrides=dict(record_interval=0.0),
             linear_gap=(2.4e-5, 7.1e-8)),
    Workload(name="dt-study-n64", preset="fig4", n=64, eps_init=0.1,
             dts=(4e-4, 2e-4, 1e-4, 5e-5), jobs=2, order_band=(1.6, 2.8),
             overrides=dict(t_final=0.04),
             linear_gap=(2.1e-3, 3.7e-5)),
)}


def eps_for_seed(workload, seed):
    rng = np.random.default_rng(seed)
    return workload.eps_init * (1.0 + EPS_BAND * rng.uniform(-1.0, 1.0))


def make_config(config_mod, root, workload, eps_init):
    """The SimulationConfig of one call; a study's members override its dt."""
    cfg = config_mod.load_config(root / "configs" / f"{workload.preset}.cfg",
                                 n=workload.n, n0=workload.n,
                                 eps_init=eps_init, **workload.overrides)
    if workload.steps:
        cfg = cfg.with_overrides(t_final=workload.steps * cfg.dt)
    return cfg


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages (empty when correct)

def linear_gaps(linear_mod, cfg, record, ode_dt=1e-3):
    """Largest |r_eff - R| and |delta/R - s| to the linear model on shared times.

    The linear model assumes a circular core of radius R0; for an eccentric
    core (eps0 > 0) it is the model of the core's mean circle.
    """
    dt_ode = min(ode_dt, cfg.t_final)
    lin = linear_mod.integrate_linear_odes(
        linear_mod.LinearConfig(r0=cfg.r0, mode=cfg.k_init, params=cfg.params(),
                                r_init=cfg.r_init, delta_init=cfg.eps_init),
        cfg.t_final, dt=dt_ode)
    times = record.column("time")
    rows = np.searchsorted(times, lin.times - 1e-9 * dt_ode)
    rows = np.minimum(rows, times.size - 1)
    shared = np.abs(times[rows] - lin.times) <= 1e-9 * max(1.0, cfg.t_final)
    if not np.any(shared):
        return float("inf"), float("inf")
    gap_r = np.abs(record.column("r_eff")[rows] - lin.radius)[shared]
    gap_s = np.abs(record.column("delta_over_r")[rows] - lin.delta_over_r)[shared]
    return float(np.max(gap_r)), float(np.max(gap_s))


def check_linear(linear_mod, workload, cfg, record):
    scale = (cfg.eps_init / workload.eps_init) ** 2
    gap_r, gap_s = linear_gaps(linear_mod, cfg, record)
    bound_r, bound_s = (b * scale for b in workload.linear_gap)
    errors = []
    if not gap_r <= bound_r:
        errors.append(f"linear model |dR| = {gap_r:.3e} > {bound_r:.3e}")
    if not gap_s <= bound_s:
        errors.append(f"linear model |d(delta/R)| = {gap_s:.3e} > {bound_s:.3e}")
    return errors


def final_values(record):
    """Entries of the last record row compared with the reference."""
    values = {c: float(record.column(c)[-1]) for c in REFERENCE_COLUMNS}
    values["gmres_total"] = float(record.column("gmres_nutrient").sum()
                                  + record.column("gmres_pressure").sum())
    return values


def load_reference(name):
    """Reference values at Chebyshev nodes of eps_init, or None if not tabled."""
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name)


def check_reference(table, eps_init, record):
    """Compare a run with the seed-commit table, interpolated to its eps_init.

    The final record row is a smooth function of eps_init across the narrow
    band, so a polynomial through the tabled Chebyshev nodes reproduces it
    far below REFERENCE_RTOL; GMRES iteration totals are integers and must
    stay within one iteration per solve of the tabled range.
    """
    got = final_values(record)
    nodes = np.array(table["eps_init"])
    errors = []
    for col in REFERENCE_COLUMNS:
        poly = np.polynomial.Chebyshev.fit(nodes, table[col], nodes.size - 1)
        want = float(poly(eps_init))
        if not abs(got[col] - want) <= REFERENCE_RTOL * abs(want):
            errors.append(f"final {col} = {got[col]!r}, reference {want!r}")
    lo, hi = min(table["gmres_total"]), max(table["gmres_total"])
    slack = 2 * len(record.rows)
    if not lo - slack <= got["gmres_total"] <= hi + slack:
        errors.append(f"GMRES iterations {got['gmres_total']:.0f} outside "
                      f"[{lo - slack:.0f}, {hi + slack:.0f}]")
    return errors


def check_run(linear_mod, workload, cfg, result, table):
    """Failure messages for one driver.run call."""
    if result.status.name != "COMPLETE":
        return [f"status {result.status.name}: {result.message}"]
    if result.steps_done != round(cfg.t_final / cfg.dt):
        return [f"stopped after {result.steps_done} steps"]
    errors = check_linear(linear_mod, workload, cfg, result.record)
    if table is not None:
        errors += check_reference(table, cfg.eps_init, result.record)
    return errors


def check_study(linear_mod, workload, cfg, study, results):
    """Failure messages for one convergence study (reference member last)."""
    bad = [f"member {i}: status {r.status.name}: {r.message}"
           for i, r in enumerate(results) if r.status.name != "COMPLETE"]
    if bad:
        return bad
    lo, hi = workload.order_band
    rates = study.rates[:, -1]
    errors = []
    if not np.all((rates >= lo) & (rates <= hi)):
        errors.append(f"observed orders {np.round(rates, 3).tolist()} outside "
                      f"[{lo}, {hi}]")
    ref_cfg = cfg.with_overrides(dt=workload.dts[-1])
    errors += check_linear(linear_mod, workload, ref_cfg, results[-1].record)
    return errors
