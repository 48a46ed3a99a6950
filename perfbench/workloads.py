"""The three benchmark workloads: CLI arguments, closed-form references, checks.

Each workload is one CLI pipeline run in-process with ``--threads 2`` and the
benchmark seed passed through as ``--seed``.  Closed-form eigenvalues come
from the ansatz formulas in ``tests/oracles.py``, loaded from the checkout so
the benchmark and the test suite share one oracle.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREADS = 2
OU_2D = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}

# the 2-D exit representation ratio should read 1.  At 2000 paths it reads
# 0.87-1.25 at most seeds, but its estimator is heavy-tailed (3.08 +- 0.42 at
# seed 410), so the ratio is measured in checks_passed and gates nothing
EXIT_RATIO_TOL = 0.4


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    fields: dict                 # ExperimentConfig fields; the CLI flags are made from them
    reference: Callable          # oracles -> closed-form eigenvalue
    lambda_tol: float            # largest |lambda - reference| counted correct
    ok_exit_codes: tuple[int, ...]
    checks: Callable             # result dict -> [(name, passed)]
    gate: tuple[str, ...]        # the checks that do not depend on the seed; all must pass
    reported_lambda: Callable    # result dict -> eigenvalue
    estimator_err: Callable      # result dict -> |Monte Carlo estimate - target|, 0 if none

    def argv(self, out: Path, seed: int) -> list[str]:
        args = [self.command]
        for key, value in self.fields.items():
            if isinstance(value, dict):
                args += ["--config", str(out.parent / "model.json")]
            else:
                args += [f"--{key}", _flag(value)]
        return args + ["--seed", str(seed), "--threads", str(THREADS), "--out", str(out)]

    def write_inputs(self, workdir: Path) -> None:
        if isinstance(self.fields["model"], dict):
            (workdir / "model.json").write_text(json.dumps({"model": self.fields["model"]}))


def _flag(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_flag(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _token(expected: str):
    return lambda res: [(expected, res["classification"] == expected)]


def _ground_checks(res: dict) -> list[tuple[str, bool]]:
    ex = res["exit_check"]
    return [
        # the r=2 row's saturation gap makes the certificate abstain, so the
        # exit check runs; in a recurrent model every path exits in time
        ("exit-check-ran", ex is not None),
        ("exit-paths-absorbed", ex is not None and ex["truncated_fraction"] < 0.01),
        ("exit-ratio", ex is not None and abs(ex["value"] - 1.0) <= EXIT_RATIO_TOL),
    ]


def _golden_checks(res: dict) -> list[tuple[str, bool]]:
    return [(c["name"], bool(c["passed"])) for c in res["checks"]]


def _golden(res: dict, name: str) -> dict:
    (check,) = [c for c in res["checks"] if c["name"] == name]
    return check


def _golden_lambda(res: dict) -> float:
    return _golden(res, "eigenvalue-extrapolation")["value"]


def _fk_err(res: dict) -> float:
    check = _golden(res, "fk-cross-validation")
    return abs(check["value"] - check["target"])


def _exit_ratio_err(res: dict) -> float:
    ex = res["exit_check"]
    return 0.0 if ex is None else abs(ex["value"] - 1.0)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hjb-1d",
            command="certify",
            fields={"model": "lq_clamped", "radii": [2.0, 4.0, 6.0, 8.0], "h": 0.01},
            reference=lambda o: o.lq_clamped_rate(1.0, 0.375, 1.0)[0],
            lambda_tol=1e-3,
            ok_exit_codes=(0,),
            # the certificate is pure PDE work, so its token repeats at every seed
            checks=_token("geometric-certified"),
            gate=("geometric-certified",),
            reported_lambda=lambda res: res["lambda"],
            estimator_err=_exit_ratio_err,
        ),
        Workload(
            name="ground-2d",
            command="certify",
            fields={"model": OU_2D, "radii": [2.0, 3.0, 4.0], "h": 0.1, "paths": 2000, "horizon": 20.0},
            # a Kronecker sum of two 1-D OU problems: twice the 1-D rate
            reference=lambda o: 2.0 * o.ou_quadratic_rate(1.0, 0.375)[0],
            lambda_tol=1e-2,
            ok_exit_codes=(0,),
            # not the "recurrent-certified" token: it rests on a 3-sigma test of
            # the exit ratio, which is biased low, and reads "inconclusive" at
            # about one seed in five
            checks=_ground_checks,
            gate=("exit-check-ran", "exit-paths-absorbed"),
            reported_lambda=lambda res: res["lambda"],
            estimator_err=_exit_ratio_err,
        ),
        Workload(
            name="verify-golden",
            command="verify",
            fields={"model": "ou_quadratic", "paths": 2000, "horizon": 20.0},
            reference=lambda o: o.ou_quadratic_rate(1.0, 0.375)[0],
            lambda_tol=1e-2,
            # exit 1 is a failed check, counted in checks_passed, not an error
            ok_exit_codes=(0, 1),
            # the Monte Carlo checks pass or fail with the seed, and
            # fk-cross-validation fails at this scale; only the PDE checks gate
            checks=_golden_checks,
            gate=("eigenvalue-extrapolation", "geometric-certificate", "monotonicity-probe"),
            reported_lambda=_golden_lambda,
            estimator_err=_fk_err,
        ),
    )
}
