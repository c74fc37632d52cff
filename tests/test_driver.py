import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tumorbim import config as cfgmod
from tumorbim import driver as drv
from tumorbim import geometry as geo
from tumorbim import solver as sol
from tumorbim import stepping as stp
from tumorbim.cli import main

PRESET_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY = dict(p=5.0, a=0.25, chi=5.0, beta=0.5, sigma_n=0.2, ginv=1e-3,
            r0=0.5, eps0=0.0, k0=0, r_init=2.0, eps_init=0.1, k_init=2,
            n=32, n0=32, dt=1e-3, t_final=0.02)


def tiny_config(**overrides):
    values = dict(TINY)
    values.update(overrides)
    return cfgmod.SimulationConfig(**values)


def write_config(path, config):
    """Write `config` as a key = value file that `load_config` reads back."""
    keys = {f: k for k, f in cfgmod._KEY_TO_FIELD.items()}
    with open(path, "w") as fh:
        fh.write("[simulation]\n")
        for f in fields(config):
            fh.write(f"{keys[f.name]} = {getattr(config, f.name)}\n")


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "run.cfg"
        write_config(path, cfg)
        loaded = cfgmod.load_config(path)
        assert loaded == cfg

    def test_parse_comments_and_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[simulation]\n# comment\nP = 2.0 ; inline\nN = 64\n"
                        "dt = 1e-3\nt_final = 0.01\nR0=0.5\nR_init=2.0\n")
        cfg = cfgmod.load_config(path)
        assert cfg.p == 2.0 and cfg.n == 64

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("unknownkey = 3\n")
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load_config(path)

    def test_validation_errors(self):
        with pytest.raises(cfgmod.ConfigError):
            tiny_config(n=100)  # not a power of two
        with pytest.raises(cfgmod.ConfigError):
            tiny_config(dt=-1.0)
        with pytest.raises(cfgmod.ConfigError):
            tiny_config(r_init=0.4)  # inside the inner boundary
        with pytest.raises(cfgmod.ConfigError):
            tiny_config(sigma_n=2.0)

    def test_overrides(self):
        cfg = tiny_config().with_overrides(dt=5e-4)
        assert cfg.dt == 5e-4
        with pytest.raises(cfgmod.ConfigError):
            tiny_config().with_overrides(bogus=1)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig7", "fig8",
                                      "fig9", "fig10", "fig11", "fig12", "fig13"])
    def test_shipped_presets_parse(self, name):
        cfg = cfgmod.load_config(PRESET_DIR / f"{name}.cfg")
        assert cfg.n >= 256
        assert cfg.t_final > 0


class TestRun:
    def test_static_case_conserves_area(self):
        # P = 0 and Ginv = 0 with a circular interface: V = 0
        cfg = tiny_config(p=0.0, a=0.0, chi=0.0, ginv=1e-30, eps_init=0.0,
                          k_init=0, t_final=0.1)
        res = drv.run(cfg)
        assert res.status is drv.RunStatus.COMPLETE
        areas = res.record.column("area")
        assert np.max(np.abs(areas - areas[0])) < 1e-8

    def test_determinism(self):
        cfg = tiny_config()
        r1 = drv.run(cfg)
        r2 = drv.run(cfg)
        assert r1.record.rows == r2.record.rows

    def test_artifacts_written(self, tmp_path):
        cfg = tiny_config(snapshot_interval=1e-2, trace_interval=1e-2)
        res = drv.run(cfg, out_dir=tmp_path)
        assert res.status is drv.RunStatus.COMPLETE
        assert (tmp_path / "record.tsv").exists()
        assert (tmp_path / "checkpoint.npz").exists()
        assert (tmp_path / "gamma0.txt").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status_name"] == "COMPLETE"
        snaps = sorted((tmp_path / "snapshots").iterdir())
        assert len(snaps) >= 3
        traces = sorted((tmp_path / "traces").iterdir())
        assert any("gamma0_" in t.name for t in traces)
        rec = drv.RunRecord.read(tmp_path / "record.tsv")
        assert rec.rows == res.record.rows  # 17-digit round trip is lossless

    def test_proximity_halt(self, tmp_path):
        # strong apoptosis shrinks the interface onto the inner boundary
        cfg = tiny_config(a=2.0, r_init=1.2, eps_init=0.0, k_init=0,
                          t_final=2.0, min_gap_factor=2.0)
        res = drv.run(cfg, out_dir=tmp_path)
        assert res.status is drv.RunStatus.PROXIMITY_HALT
        assert res.state.time < 2.0
        # the final snapshot is written and loadable
        snaps = sorted((tmp_path / "snapshots").iterdir())
        x, y, t, s = geo.read_snapshot(snaps[-1])
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_one_gap_pass_per_step(self, tmp_path, monkeypatch):
        # the driver measures the Gamma0-Gamma gap once per loop iteration and
        # the solve measures none; each recorded min_gap is the smaller of the
        # two gaps recomputed from the step's snapshot
        gap_between, solve = geo.min_gap_between, sol.FieldSolver.solve
        calls, solving = [], [False]

        def counting_gap(a, b):
            calls.append(solving[0])
            return gap_between(a, b)

        def flagged_solve(self, gamma):
            solving[0] = True
            try:
                return solve(self, gamma)
            finally:
                solving[0] = False

        for module in (drv, sol, geo):
            monkeypatch.setattr(module, "min_gap_between", counting_gap)
        monkeypatch.setattr(sol.FieldSolver, "solve", flagged_solve)
        res = drv.run(tiny_config(snapshot_interval=1e-3), out_dir=tmp_path)
        assert res.status is drv.RunStatus.COMPLETE
        assert calls == [False] * (res.steps_done + 1)

        x0, y0, _, _ = geo.read_snapshot(tmp_path / "gamma0.txt")
        gamma0 = geo.PlanarCurveSamples.from_xy(x0, y0)
        snaps = sorted((tmp_path / "snapshots").iterdir())
        assert len(snaps) == len(res.record.rows)
        for snap, recorded in zip(snaps, res.record.column("min_gap")):
            x, y, _, _ = geo.read_snapshot(snap)
            gamma = geo.PlanarCurveSamples.from_xy(x, y)
            assert recorded == min(gap_between(gamma0, gamma),
                                   geo.min_self_gap(gamma))

    def test_metric_collapse_maps_to_solver_failure(self, tmp_path,
                                                    monkeypatch):
        def collapse(state, *args, **kwargs):
            raise stp.SolverCollapse(state.time)

        monkeypatch.setattr(drv, "step", collapse)
        res = drv.run(tiny_config(), out_dir=tmp_path)
        assert res.status is drv.RunStatus.SOLVER_FAILURE
        assert int(res.status) == 3
        assert res.steps_done == 1
        assert "arclength metric collapsed" in res.message
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status_name"] == "SOLVER_FAILURE"

    def test_record_cadence(self):
        cfg = tiny_config(record_interval=5e-3, t_final=0.02)
        res = drv.run(cfg)
        times = res.record.column("time")
        assert times == pytest.approx([0.0, 5e-3, 1e-2, 1.5e-2, 2e-2], abs=1e-12)

    def test_incommensurate_cadence_rejected(self):
        cfg = tiny_config(record_interval=3.3e-3)
        with pytest.raises(cfgmod.ConfigError):
            drv.run(cfg)


class TestCheckpointResume:
    def test_resume_matches_straight_run(self, tmp_path):
        cfg = tiny_config(t_final=0.2, dt=1e-3)
        straight = drv.run(cfg, out_dir=tmp_path / "straight")
        half = drv.run(cfg.with_overrides(t_final=0.1), out_dir=tmp_path / "half")
        cont = drv.resume(tmp_path / "half" / "checkpoint.npz", t_final=0.2,
                          out_dir=tmp_path / "cont")
        joined = half.record.rows + cont.record.rows[1:]
        assert joined == straight.record.rows
        xs, ys = geo.reconstruct(straight.state)
        xc, yc = geo.reconstruct(cont.state)
        assert np.array_equal(xs, xc) and np.array_equal(ys, yc)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.array([drv.CHECKPOINT_VERSION]))
        with pytest.raises(cfgmod.ConfigError):
            drv.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        res = drv.run(cfg, out_dir=tmp_path)
        data = dict(np.load(tmp_path / "checkpoint.npz", allow_pickle=False))
        data["version"] = np.array([99])
        np.savez(tmp_path / "badver.npz", **data)
        with pytest.raises(cfgmod.ConfigError):
            drv.load_checkpoint(tmp_path / "badver.npz")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(cfgmod.ConfigError):
            drv.load_checkpoint(path)

    def test_node_count_tamper_rejected(self, tmp_path):
        drv.run(tiny_config(), out_dir=tmp_path)
        data = dict(np.load(tmp_path / "checkpoint.npz", allow_pickle=False))
        data["theta"] = data["theta"][: len(data["theta"]) // 2]
        np.savez(tmp_path / "badn.npz", **data)
        with pytest.raises(cfgmod.ConfigError):
            drv.load_checkpoint(tmp_path / "badn.npz")

    @pytest.mark.parametrize("changes, message", [
        # version 1 checkpoints carry the retired tol and krasny_floor keys
        (dict(version=np.array([1])), "checkpoint version 1 is not supported"),
        (dict(config_json=np.array(json.dumps(dict(TINY, bogus=1)))),
         "unexpected keyword argument 'bogus'"),
        (dict(config_json=np.array("not json")), "bad config"),
    ], ids=["version-1", "extra-key", "not-json"])
    def test_tampered_checkpoint_exit_code(self, tmp_path, capsys, changes,
                                           message):
        drv.run(tiny_config(), out_dir=tmp_path / "run")
        data = dict(np.load(tmp_path / "run" / "checkpoint.npz",
                            allow_pickle=False))
        data.update(changes)
        path = str(tmp_path / "tampered.npz")
        np.savez(path, **data)
        capsys.readouterr()
        assert main(["run", "--resume", path]) == 4
        assert message in capsys.readouterr().err
        assert main(["traces", "--checkpoint", path,
                     "--out", str(tmp_path / "tr")]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("changes, message", [
        (dict(version=np.array([], dtype=int)), "version holds 0 values"),
        (dict(s_alpha=np.array([])), "s_alpha holds 0 values"),
        (dict(s_alpha=np.array([0.0])), "s_alpha = 0.0 is not positive"),
        (dict(s_alpha=np.array([-1.0])), "s_alpha = -1.0 is not positive"),
        (dict(s_alpha=np.array([np.inf])), "s_alpha = inf is not positive"),
        (dict(ref=np.zeros(3)), "ref holds 3 values, not 2"),
        (dict(theta=np.full(32, np.nan)), "theta has non-finite entries"),
        (dict(hist_nhat=None), "history without hist_nhat"),
    ], ids=["empty-version", "empty-s_alpha", "zero-s_alpha", "negative-s_alpha",
            "inf-s_alpha", "ref-3", "nan-theta", "history-part"])
    def test_bad_checkpoint_array_exit_code(self, tmp_path, capsys, changes,
                                            message):
        drv.run(tiny_config(), out_dir=tmp_path / "run")
        data = dict(np.load(tmp_path / "run" / "checkpoint.npz",
                            allow_pickle=False))
        data.update(changes)
        path = str(tmp_path / "tampered.npz")
        np.savez(path, **{k: v for k, v in data.items() if v is not None})
        capsys.readouterr()
        assert main(["run", "--resume", path]) == 4
        assert message in capsys.readouterr().err


class TestConvergenceStudy:
    def test_identical_members_zero_error(self):
        cfg = tiny_config(record_interval=5e-3)
        study, results = drv.convergence_study(cfg, dts=[1e-3, 1e-3])
        assert np.max(study.errors) == 0.0

    def test_dt_refinement_second_order(self):
        cfg = tiny_config(t_final=0.05, record_interval=1e-2)
        study, _ = drv.convergence_study(cfg, dts=[4e-4, 2e-4, 1e-4, 5e-5])
        # rates between consecutive refinements hover around 2
        final_rates = study.rates[:, -1]
        assert np.all(final_rates > 1.4) and np.all(final_rates < 2.8)

    def test_study_table_write(self, tmp_path):
        cfg = tiny_config(record_interval=1e-2, t_final=0.02)
        study, _ = drv.convergence_study(cfg, dts=[2e-3, 1e-3, 5e-4])
        study.write(tmp_path / "study.tsv")
        text = (tmp_path / "study.tsv").read_text().splitlines()
        assert text[0].startswith("# labels")
        assert len(text) == 2 + study.times.size

    def test_requires_cadence(self):
        with pytest.raises(cfgmod.ConfigError):
            drv.convergence_study(tiny_config(), dts=[1e-3, 5e-4])

    def test_parallel_members_match_serial(self):
        # jobs > 1 dispatches the longest member first; the results still
        # come back in the given order with the same records
        cfg = tiny_config(record_interval=1e-2, t_final=0.02)
        values = dict(dts=[2e-3, 1e-3, 5e-4])
        serial, serial_runs = drv.convergence_study(cfg, **values)
        pooled, pooled_runs = drv.convergence_study(cfg, jobs=2, **values)
        assert pooled.labels == serial.labels
        assert np.array_equal(pooled.errors, serial.errors)
        for a, b in zip(pooled_runs, serial_runs):
            assert a.steps_done == b.steps_done
            assert a.record.rows == b.record.rows

    def test_n_refinement(self):
        cfg = tiny_config(record_interval=1e-2, t_final=0.02, dt=1e-3)
        study, _ = drv.convergence_study(cfg, ns=[32, 64, 128])
        # spatial errors at the spectral floor for this analytic geometry
        assert np.max(study.errors[1]) < 1e-7


class TestTraceEmission:
    def test_radial_symmetry_gives_flat_traces(self, tmp_path):
        cfg = tiny_config(eps_init=0.0, k_init=0, t_final=2e-3, n=64, n0=64)
        drv.run(cfg, out_dir=tmp_path)
        files = sorted((tmp_path / "traces").iterdir())
        for f in files:
            data = np.loadtxt(f, skiprows=2)
            assert np.ptp(data[:, 1]) < 1e-8
            assert np.ptp(data[:, 2]) < 1e-8

    def test_reemit_from_checkpoint(self, tmp_path):
        cfg = tiny_config()
        drv.run(cfg, out_dir=tmp_path / "run")
        drv.reemit_traces(tmp_path / "run" / "checkpoint.npz", tmp_path / "re")
        files = list((tmp_path / "re" / "traces").iterdir())
        assert len(files) == 2


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        write_config(path, tiny_config())
        return path

    def test_run_verb(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path):
        path = self.write_cfg(tmp_path)
        code = main(["run", "--config", str(path), "--dt", "5e-4",
                     "--t-final", "0.01"])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert main(["run", "--config", str(missing)]) == 4

    @pytest.mark.parametrize("line", ["eps0 = -0.01", "k0 = -2"])
    def test_bad_inner_boundary_exit_code(self, tmp_path, line):
        path = self.write_cfg(tmp_path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        assert main(["run", "--config", str(path)]) == 4

    @pytest.mark.parametrize("line, args", [
        ("dt = nan", []), ("", ["--dt", "nan"]), ("R_init = inf", [])])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, line, args):
        path = self.write_cfg(tmp_path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")] + args)
        assert code == 4
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, overrides", [
        ("1", {}), ("2", dict(r_init=0.45, eps_init=-0.1))])
    def test_linstab_bad_linear_config_exit_code(self, tmp_path, mode,
                                                 overrides):
        # mode 1 is a translation; r_init = 0.45 lies inside r0 = 0.5
        path = tmp_path / "lin.cfg"
        write_config(path, tiny_config(**overrides))
        code = main(["linstab", "--config", str(path), "--mode", mode,
                     "--out", str(tmp_path / "curve.tsv")])
        assert code == 4

    @pytest.mark.parametrize("dt_ode", ["0", "-0.001", "nan"])
    def test_linstab_evolve_bad_dt_exit_code(self, tmp_path, capsys, dt_ode):
        path = self.write_cfg(tmp_path)
        code = main(["linstab", "--config", str(path), "--evolve",
                     "--t-final", "0.5", "--dt-ode", dt_ode,
                     "--out", str(tmp_path / "evolve.tsv")])
        assert code == 4
        assert "need dt > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["tol = 1e-10", "krasny_floor = 1e-12"])
    def test_retired_key_exit_code(self, tmp_path, capsys, line):
        # the GMRES tolerance and the Krasny floor are constants of the
        # solver and the stepper, not configuration keys
        path = self.write_cfg(tmp_path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        assert main(["run", "--config", str(path)]) == 4
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # argparse reads a negative value in scientific notation as an option
        (["linstab", "--evolve", "--dt-ode", "-1e-3", "--out", "x.tsv"],
         "argument --dt-ode: expected one argument"),
        (["run", "--n", "abc"], "argument --n: invalid int value"),
        (["converge", "--dts", "1e-3,abc", "--out", "y.tsv"],
         "argument --dts: invalid float list value"),
    ])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, message):
        # usage errors are configuration errors, not argparse's 2, which
        # tumorbim reserves for the proximity halt
        path = self.write_cfg(tmp_path)
        argv = [argv[0], "--config", str(path)] + argv[1:]
        assert main(argv) == 4
        assert message in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: tumorbim" in capsys.readouterr().out

    def test_proximity_exit_code(self, tmp_path):
        path = tmp_path / "halt.cfg"
        write_config(path, tiny_config(a=2.0, r_init=1.2, eps_init=0.0,
                                              k_init=0, t_final=2.0))
        assert main(["run", "--config", str(path)]) == 2

    def test_linstab_curve(self, tmp_path):
        path = self.write_cfg(tmp_path)
        out = tmp_path / "curve.tsv"
        code = main(["linstab", "--config", str(path), "--mode", "2",
                     "--r-min", "1.0", "--r-max", "3.0", "--num", "20",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t")[:2] == ["radius", "a_crit"]
        assert len(lines) == 21

    def test_linstab_evolve(self, tmp_path):
        path = self.write_cfg(tmp_path)
        out = tmp_path / "evolve.tsv"
        code = main(["linstab", "--config", str(path), "--evolve",
                     "--t-final", "0.5", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, skiprows=1)
        assert data.shape[1] == 3

    def test_converge_verb(self, tmp_path):
        path = self.write_cfg(tmp_path)
        out = tmp_path / "study.tsv"
        code = main(["converge", "--config", str(path), "--dts", "2e-3,1e-3",
                     "--record-interval", "0.01", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_traces_verb(self, tmp_path):
        path = self.write_cfg(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        code = main(["traces", "--checkpoint", str(tmp_path / "o" / "checkpoint.npz"),
                     "--out", str(tmp_path / "tr")])
        assert code == 0
        assert (tmp_path / "tr" / "traces").exists()

    def test_resume_verb(self, tmp_path):
        path = self.write_cfg(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        code = main(["run", "--resume", str(tmp_path / "o" / "checkpoint.npz"),
                     "--t-final", "0.04", "--out", str(tmp_path / "r")])
        assert code == 0
        assert main(["run", "--config", str(path), "--t-final", "0.04",
                     "--out", str(tmp_path / "s")]) == 0
        half = (tmp_path / "o" / "record.tsv").read_text().splitlines()
        cont = (tmp_path / "r" / "record.tsv").read_text().splitlines()
        straight = (tmp_path / "s" / "record.tsv").read_text().splitlines()
        # the resumed record opens with the checkpointed row again
        assert cont[1] == half[-1]
        assert half + cont[2:] == straight
