"""Command-line pipelines: flags, outputs, manifests, exit codes."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from riskeig.cli import main


def _run(args):
    return CliRunner().invoke(main, args)


def _solve(outdir, *extra):
    return _run(["solve", "--model", "ou_quadratic", "--r", "8", "--h", "0.01",
                 "--out", str(outdir), *extra])


class TestSolve:
    def test_writes_result_fields_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        res = _solve(out)
        assert res.exit_code == 0, res.output
        result = json.loads((out / "result.json").read_text())
        assert 0.2 < result["lambda"] < 0.25
        assert result["residual"] < 1e-10
        lo, hi = result["bracket"]
        assert lo <= result["lambda"] <= hi and hi - lo <= 2e-10
        assert result["hjb_residual"] < 1e-9
        assert result["grid"] == {"r": 8.0, "h": 0.01, "dim": 1}
        assert len(result["v"]) == 1599
        assert (out / "fields" / "eigenfunction.csv").read_text().splitlines()[0] == "x1,v"

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["seed"] == 12345
        assert len(manifest["config_hash"]) == 64
        assert manifest["config"]["r"] == 8.0
        assert set(manifest["versions"]) == {"riskeig", "numpy", "scipy", "python"}

    def test_flags_change_the_config_hash(self, tmp_path):
        a = _solve(tmp_path / "a")
        b = _run(["solve", "--model", "ou_quadratic", "--r", "6", "--h", "0.01",
                  "--out", str(tmp_path / "b")])
        assert a.exit_code == 0 and b.exit_code == 0
        ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
        assert ha != hb

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        assert _solve(tmp_path / "a").exit_code == 0
        assert _solve(tmp_path / "b").exit_code == 0
        assert (tmp_path / "a" / "result.json").read_bytes() == \
            (tmp_path / "b" / "result.json").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()

    def test_floats_are_emitted_with_full_precision(self, tmp_path):
        out = tmp_path / "run"
        assert _solve(out).exit_code == 0
        text = (out / "result.json").read_text()
        lam_text = next(l for l in text.splitlines() if '"lambda"' in l)
        printed = lam_text.split(":")[1].strip().rstrip(",")
        assert f"{float(printed):.17g}" == printed


class TestSweep:
    def test_double_well_lambda_column_is_monotone(self, tmp_path):
        out = tmp_path / "run"
        res = _run(["sweep", "--model", "double_well", "--radii", "2,4,8",
                    "--h", "0.05", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "radius,spacing,lambda,residual,policy_sweeps"
        lams = [float(l.split(",")[2]) for l in lines[1:]]
        assert len(lams) == 3
        # nondecreasing up to solver noise at saturated radii, with real
        # growth before saturation
        assert all(b >= a - 1e-8 for a, b in zip(lams, lams[1:]))
        assert lams[1] > lams[0] + 1e-3
        result = json.loads((out / "result.json").read_text())
        assert result["lambda_star"] >= lams[-1]
        assert [row["radius"] for row in result["rows"]] == [2.0, 4.0, 8.0]

    def test_thread_count_leaves_outputs_byte_identical(self, tmp_path):
        args = ["sweep", "--model", "ou_quadratic", "--radii", "1,2,3", "--h", "0.05"]
        assert _run(args + ["--threads", "1", "--out", str(tmp_path / "a")]).exit_code == 0
        assert _run(args + ["--threads", "3", "--out", str(tmp_path / "b")]).exit_code == 0
        assert (tmp_path / "a" / "result.json").read_bytes() == \
            (tmp_path / "b" / "result.json").read_bytes()
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()


class TestCertify:
    def test_benchmark_certifies_at_reduced_scale(self, tmp_path):
        out = tmp_path / "run"
        res = _run(["certify", "--model", "ou_quadratic", "--radii", "2,3,4",
                    "--h", "0.05", "--paths", "200", "--horizon", "10",
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        result = json.loads((out / "result.json").read_text())
        assert result["classification"] == "geometric-certified"
        assert result["certificate"]["delta_hat"] > 0
        header = (out / "fields" / "ground_state.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["x1", "psi"]
        assert "classification: geometric-certified" in res.output


class TestTwoDimensional:
    """sweep and certify end to end on the isotropic 2-D OU model (a Kronecker sum)."""

    MODEL = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}

    def _run_2d(self, tmp_path, command, threads):
        cfg = tmp_path / "ou2d.json"
        cfg.write_text(json.dumps({"model": self.MODEL}))
        out = tmp_path / f"{command}-t{threads}"
        res = _run([command, "--config", str(cfg), "--radii", "2,3,4", "--h", "0.1",
                    "--paths", "2000", "--horizon", "20", "--threads", str(threads),
                    "--out", str(out)])
        assert res.exit_code == 0, res.output
        return out

    def _twice_1d_rate(self):
        return 2.0 * oracles.ou_quadratic_rate(1.0, 0.375)[0]

    def test_sweep(self, tmp_path):
        a = self._run_2d(tmp_path, "sweep", 1)
        b = self._run_2d(tmp_path, "sweep", 2)
        result = json.loads((a / "result.json").read_text())
        assert result["rows"][-1]["radius"] == 4.0
        assert abs(result["rows"][-1]["lambda"] - self._twice_1d_rate()) <= 1e-2
        for name in ("result.json", "sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_certify(self, tmp_path):
        a = self._run_2d(tmp_path, "certify", 1)
        b = self._run_2d(tmp_path, "certify", 2)
        result = json.loads((a / "result.json").read_text())
        assert abs(result["lambda"] - self._twice_1d_rate()) <= 1e-2
        # the saturation gap at these radii makes the certificate abstain,
        # so the exit representation runs; every path reaches the ball
        assert result["exit_check"] is not None
        assert result["exit_check"]["truncated_fraction"] < 0.01
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()


class TestVerify:
    def test_battery_bytes_at_more_workers_than_cores(self, tmp_path, monkeypatch):
        """Seven marches on seven forked workers write the serial battery's bytes."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / threads
            res = _run(["verify", "--model", "ou_quadratic", "--paths", "200", "--horizon", "4",
                        "--threads", threads, "--out", str(out)])
            assert res.exit_code in (0, 1), res.output
            outs.append((out / "result.json").read_bytes())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"model": "ou_quadratic", "radii": [1.0, 2.0], "h": 0.1, "seed": 7}))
        out = tmp_path / "run"
        res = _run(["sweep", "--config", str(cfg), "--h", "0.05", "--out", str(out)])
        assert res.exit_code == 0, res.output
        conf = json.loads((out / "manifest.json").read_text())["config"]
        assert conf["h"] == 0.05          # flag wins
        assert conf["radii"] == [1.0, 2.0]
        assert conf["seed"] == 7

    def test_unknown_config_key_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ou_quadratic", "bogus": 1}))
        res = _run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "bogus" in res.output


class TestExitCodes:
    def test_missing_model_is_usage_error(self, tmp_path):
        res = _run(["solve", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "model" in res.output

    def test_zero_spacing_is_usage_error(self, tmp_path):
        # a flag and a config-file value take the same check, with the same message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ou_quadratic", "h": 0}))
        for i, source in enumerate([["--model", "ou_quadratic", "--h", "0"], ["--config", str(cfg)]]):
            out = tmp_path / f"o{i}"
            res = _run(["solve", *source, "--out", str(out)])
            assert res.exit_code == 2, (source, res.output)
            assert "spacing" in res.output
            assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"model": "ou_quadratic", "h": "0.01"},
        {"model": "ou_quadratic", "radii": "2,4"},
        {"model": 5},
        {"model": "ou_quadratic", "tol": "1e-6"},
        {"model": "ou_quadratic", "eigen_tol": "1e-10"},
        {"model": "ou_quadratic", "pi_tol": "1e-12"},
        {"model": "ou_quadratic", "seed": "7"},
        {"model": "ou_quadratic", "seed": 7.0},
        {"model": "ou_quadratic", "tol": True},
        {"model": "ou_quadratic", "radii": [2, "4"]},
    ])
    def test_mistyped_config_values_are_usage_errors(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "o"
        res = _run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()
        key = next((k for k in values if k != "model"), "model")
        assert f"config key {key!r} must be" in res.output

    @pytest.mark.parametrize("actions", [
        {"interval": [-1, 1]},
        {"count": 3},
        {"interval": [-1, 1], "count": 2.5},
        {"interval": [-1, 1], "count": 0},
        {"interval": [-1, 1], "count": True},
    ])
    def test_malformed_action_interval_is_usage_error(self, tmp_path, actions):
        model = {"dim": 1, "drift": {"family": "ou", "control_gain": 1.0},
                 "cost": {"family": "quadratic"}, "actions": actions}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "o"
        res = _run(["solve", "--config", str(cfg), "--r", "2", "--h", "0.1", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert ("interval" if "interval" not in actions else "count") in res.output
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert _run(["frobnicate"]).exit_code == 2

    def test_unparseable_radii_is_usage_error(self, tmp_path):
        res = _run(["sweep", "--model", "ou_quadratic", "--radii", "2,foo",
                    "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_decreasing_radii_is_usage_error(self, tmp_path):
        res = _run(["sweep", "--model", "ou_quadratic", "--radii", "4,2",
                    "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_spacing_must_be_below_every_radius(self, tmp_path):
        out = tmp_path / "o"
        res = _run(["sweep", "--model", "ou_quadratic", "--radii", "2,4", "--h", "3",
                    "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "spacing" in res.output
        assert not out.exists()

    def test_verify_rejects_non_benchmark_model(self, tmp_path):
        res = _run(["verify", "--model", "double_well", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        # a config file's model goes through the same guard as --model
        for i, model in enumerate([
            {"builtin": "double_well"},
            {"builtin": "ou_quadratic", "params": {"kappa": 0.5}},
            {"dim": 1, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}},
        ]):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"model": model}))
            out = tmp_path / f"c{i}"
            res = _run(["verify", "--config", str(cfg), "--radii", "2,3", "--h", "0.1",
                        "--paths", "200", "--horizon", "2", "--out", str(out)])
            assert res.exit_code == 2, (model, res.output)
            assert "ou_quadratic" in res.output
            assert not out.exists()

    @pytest.mark.parametrize("key", ["gamma", "r_cut"])
    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_certificate_settings_are_checked_before_compute(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ou_quadratic", key: value}))
        out = tmp_path / "o"
        res = _run(["certify", "--config", str(cfg), "--radii", "2,3", "--h", "0.1",
                    "--paths", "200", "--horizon", "2", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert key in res.output
        assert not out.exists()

    def test_certify_needs_r_cut_below_half_the_top_radius(self, tmp_path):
        # the exit check would start at R/2 = 1.5, inside the ball
        out = tmp_path / "o"
        res = _run(["certify", "--model", "ou_quadratic", "--radii", "1,2,3", "--h", "0.05",
                    "--r-cut", "1.5", "--paths", "200", "--horizon", "2", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "r_cut" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("bump", [
        {"bump_lo": -3.0, "bump_hi": 3.0},   # outside the smallest radius 2
        {"bump_lo": 0.5, "bump_hi": 0.5},    # empty box
        {"epsilon": -0.1},
    ])
    def test_verify_checks_the_bump_before_compute(self, tmp_path, bump):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"builtin": "ou_quadratic"}, **bump}))
        out = tmp_path / "o"
        res = _run(["verify", "--config", str(cfg), "--radii", "2,3", "--h", "0.1",
                    "--paths", "200", "--horizon", "2", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_oversized_grid_is_infrastructure_error(self, tmp_path):
        out = tmp_path / "o"
        res = _run(["solve", "--model", "ou_quadratic", "--r", "8", "--h", "1e-7",
                    "--out", str(out)])
        assert res.exit_code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ResourceError"
        # the manifest is written before compute starts, so the failed run
        # is still attributable
        assert (out / "manifest.json").exists()
