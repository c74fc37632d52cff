"""Golden-record tripwires: 50-step N = 64 slices of two presets.

Each slice's `record.tsv` must match `tests/data/golden_*` byte for byte,
so a refactor of the assembly, solver or stepper that changes any recorded
digit shows here.  Regenerate those files only for a change that is meant to
alter the numbers, and say why in the change log.

The `tests/data/frozen_*` files are never regenerated.  Every run is also
compared with them under fixed tolerances, so that drift cannot build up
over a series of regenerations; the measured drift of each column is echoed
in the acceptance summary.

The `tests/data/converged_*` files hold the same 50-step slices run at
N = N0 = 256 and are never regenerated either.  They bound the N = 64
slice's discretisation error, so a change that makes the N = 64 run less
accurate fails here even when it keeps within the frozen tolerances.

The `tests/data/golden_*_traces_*` files pin the same slices' final
boundary-trace files byte for byte in the same way.

The `tests/data/golden_*_n512_*` files pin a 2-step slice of the same
presets at N = N0 = 512, its `record.tsv` and both final trace files, byte
for byte.  Both take the separable cross path there (fig11's N = 64 slice
takes the dense one), at the size the headline runs use.

The `tests/data/golden_linear_*` files pin the linear model's `linstab`
output, a fig3 stability curve and a fig2 trajectory, byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tumorbim import config as cfgmod
from tumorbim import driver as drv
from tumorbim.cli import main

from conftest import record_acceptance
from oracles import read_record

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


# (solves whose proximity warning fired, time of the first): fig11's core
# sits within five node spacings of the interface from the start
PROXIMITY = {"fig7": (0, None), "fig11": (51, 0.0)}

# column -> (kind, tolerance) against the frozen records; max_v follows the
# 1e-10 GMRES tolerance, and a changed assembly may move a count by one
FROZEN_TOLERANCE = {
    "time": ("abs", 0.0),
    "area": ("rel", 1e-12),
    "r_eff": ("rel", 1e-12),
    "delta_over_r": ("abs", 1e-12),
    "gmres_nutrient": ("abs", 1.0),
    "gmres_pressure": ("abs", 1.0),
    "min_gap": ("rel", 1e-12),
    "max_v": ("rel", 1e-7),
}


# preset -> column -> (kind, bound) of the N = 64 slice against the N = 256
# one; each bound is about twice the error measured when the records were
# written (fig7: max_v 2.1e-9 rel, delta/R 8.5e-8 abs; fig11: max_v 1.2e-6
# rel, delta/R 8.4e-8 abs; area and r_eff within 2e-15 rel on both)
CONVERGED_TOLERANCE = {
    "fig7": {"area": ("rel", 4e-15), "r_eff": ("rel", 4e-15),
             "delta_over_r": ("abs", 1.7e-7), "max_v": ("rel", 4.2e-9)},
    "fig11": {"area": ("rel", 4e-15), "r_eff": ("rel", 4e-15),
              "delta_over_r": ("abs", 1.7e-7), "max_v": ("rel", 2.4e-6)},
}


def run_slice(preset, n, steps, out):
    """Run `steps` steps of a preset at N = N0 = n into `out`, recording
    every step and writing the traces only at the end."""
    cfg = cfgmod.load_config(ROOT / "configs" / f"{preset}.cfg")
    cfg = cfg.with_overrides(n=n, n0=n, t_final=steps * cfg.dt,
                             record_interval=0.0, snapshot_interval=0.0,
                             trace_interval=0.0)
    result = drv.run(cfg, out_dir=out)
    assert result.status == drv.RunStatus.COMPLETE, result.message


@pytest.fixture(scope="module", params=["fig7", "fig11"])
def golden_slice(request, tmp_path_factory):
    """(preset, output directory) of one 50-step N = 64 run."""
    preset = request.param
    out = tmp_path_factory.mktemp(f"golden_{preset}")
    run_slice(preset, 64, 50, out)
    return preset, out


def test_golden_record(golden_slice):
    preset, out = golden_slice
    got = (out / "record.tsv").read_bytes()
    want = (DATA / f"golden_{preset}_record.tsv").read_bytes()
    same = got == want
    record_acceptance(f"golden record {preset} (50 steps, N = 64): "
                      f"{'PASS' if same else 'FAIL'} byte-identical record.tsv")
    assert same, f"{preset} record.tsv differs from tests/data"
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["proximity_steps"],
            summary["first_proximity_time"]) == PROXIMITY[preset]


@pytest.mark.parametrize("side", ["gamma0", "gamma"])
def test_golden_traces(golden_slice, side):
    preset, out = golden_slice
    got = (out / "traces" / f"{side}_00000050.txt").read_bytes()
    name = f"golden_{preset}_traces_{side}.txt"
    assert got == (DATA / name).read_bytes(), \
        f"{preset} {side} traces differ from tests/data/{name}"


@pytest.mark.parametrize("preset", ["fig7", "fig11"])
def test_golden_n512(preset, tmp_path):
    run_slice(preset, 512, 2, tmp_path)
    got = {"record": tmp_path / "record.tsv"}
    got.update({f"traces_{side}": tmp_path / "traces" / f"{side}_00000002.txt"
                for side in ("gamma0", "gamma")})
    differ = [f"golden_{preset}_n512_{kind}" for kind, path in got.items()
              if path.read_bytes() != (DATA / f"golden_{preset}_n512_{kind}"
                                       f"{path.suffix}").read_bytes()]
    assert not differ, f"N = 512 outputs differ from tests/data: {differ}"


def column_errors(got, want, tolerance):
    """(one "name error kind" entry per column, the columns over their bound)."""
    assert len(got.rows) == len(want.rows)
    errors, bad = [], []
    for name, (kind, tol) in tolerance.items():
        g, w = got.column(name), want.column(name)
        err = np.abs(g - w)
        if kind == "rel":
            err = err / np.abs(w)
        worst = float(np.max(err))
        errors.append(f"{name} {worst:.1e} {kind}")
        if worst > tol:
            bad.append(f"{name}: {worst:.3e} > {tol:g} ({kind})")
    return errors, bad


def test_frozen_record(golden_slice):
    preset, out = golden_slice
    drift, bad = column_errors(read_record(out / "record.tsv"),
                               read_record(DATA / f"frozen_{preset}_record.tsv"),
                               FROZEN_TOLERANCE)
    record_acceptance(f"frozen record {preset} (50 steps, N = 64): "
                      f"{'FAIL' if bad else 'PASS'} max drift "
                      + ", ".join(drift))
    assert not bad, f"{preset} drifted from the frozen record: {bad}"


def test_converged_record(golden_slice):
    preset, out = golden_slice
    errors, bad = column_errors(
        read_record(out / "record.tsv"),
        read_record(DATA / f"converged_{preset}_record.tsv"),
        CONVERGED_TOLERANCE[preset])
    record_acceptance(f"converged record {preset} (50 steps, N = 64 against "
                      f"N = 256): {'FAIL' if bad else 'PASS'} max error "
                      + ", ".join(errors))
    assert not bad, f"{preset} strayed from the converged record: {bad}"


# golden file -> linstab arguments that write it
GOLDEN_LINEAR = {
    "golden_linear_fig3_stability.tsv": ["--config", "configs/fig3.cfg",
                                         "--mode", "2", "--num", "50"],
    "golden_linear_fig2_evolve.tsv": ["--config", "configs/fig2.cfg",
                                      "--evolve", "--t-final", "0.2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LINEAR))
def test_golden_linear(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / name
    assert main(["linstab", *GOLDEN_LINEAR[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes(), \
        f"linstab output differs from tests/data/{name}"


def test_sigma_stays_in_bounds(golden_slice):
    # the maximum principle keeps the nutrient trace on Gamma in [0, 1]
    _, out = golden_slice
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["max_sigma_violation"] < 1e-8
