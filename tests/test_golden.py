"""Golden-record tripwire: 50-step N = 64 slices of two presets.

Each slice's `record.tsv` must match the stored file byte for byte, so a
refactor of the assembly, solver or stepper that changes any recorded digit
shows here.  Regenerate the files only for a change that is meant to alter
the numbers, and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from tumorbim import config as cfgmod
from tumorbim import driver as drv

from conftest import record_acceptance

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


# (solves whose proximity warning fired, time of the first): fig11's core
# sits within five node spacings of the interface from the start
PROXIMITY = {"fig7": (0, None), "fig11": (51, 0.0)}


@pytest.mark.parametrize("preset", ["fig7", "fig11"])
def test_golden_record(preset, tmp_path):
    cfg = cfgmod.load_config(ROOT / "configs" / f"{preset}.cfg")
    cfg = cfg.with_overrides(n=64, n0=64, t_final=50 * cfg.dt,
                             record_interval=0.0, snapshot_interval=0.0,
                             trace_interval=0.0)
    result = drv.run(cfg, out_dir=tmp_path)
    assert result.status == drv.RunStatus.COMPLETE, result.message
    got = (tmp_path / "record.tsv").read_bytes()
    want = (DATA / f"golden_{preset}_record.tsv").read_bytes()
    same = got == want
    record_acceptance(f"golden record {preset} (50 steps, N = 64): "
                      f"{'PASS' if same else 'FAIL'} byte-identical record.tsv")
    assert same, f"{preset} record.tsv differs from tests/data"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["proximity_steps"],
            summary["first_proximity_time"]) == PROXIMITY[preset]
