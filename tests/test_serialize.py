"""result.json keys of every report type, pinned to the format they have always had.

Each report is emitted through the one dataclass rule of ``_serialize``; a
field rename or reorder changes these key lists and fails here, long before
the output-hash comparison would.
"""

import json

import numpy as np

from riskeig._serialize import dumps
from riskeig.cli import SWEEP_CSV_HEADER, CheckResult
from riskeig.continuation import ProbeReport, SweepRow
from riskeig.groundstate import CertificateReport, IdentityReport
from riskeig.montecarlo import ExitMomentReport, FkEstimate, GammaIntegralReport

FK_KEYS = ["value", "stderr", "paths_used", "truncated_fraction"]


def _emitted(report) -> dict:
    return json.loads(dumps(report))


def test_fk_estimate_keys():
    assert list(_emitted(FkEstimate(1.0, 0.1, 10, 0.0))) == FK_KEYS


def test_exit_moment_report_keys_and_nested_estimate():
    d = _emitted(ExitMomentReport(FkEstimate(1.0, 0.1, 10, 0.0), "finite-consistent",
                                  [(1.0, 2.0), (2.0, 2.5)], 0.1))
    assert list(d) == ["estimate", "verdict", "schedule", "max_path_share"]
    assert list(d["estimate"]) == FK_KEYS
    assert d["schedule"] == [[1.0, 2.0], [2.0, 2.5]]


def test_gamma_integral_report_keys():
    d = _emitted(GammaIntegralReport([(1.0, 0.5)], "divergent-consistent", 0.0, 0.5, 0.0))
    assert list(d) == ["values", "verdict", "fitted_rate", "plateau", "truncated_fraction"]
    assert d["values"] == [[1.0, 0.5]]


def test_probe_report_keys():
    d = _emitted(ProbeReport(0.1, 0.2, 0.1, True, 1e-3, 1e-4))
    assert list(d) == ["lambda_base", "lambda_bumped", "gap", "strict", "threshold",
                       "saturation_gap"]


def test_certificate_report_keys_leave_out_the_lyapunov_field():
    d = _emitted(CertificateReport("inconclusive", 0.1, 0.2, 0.1, 0.1, 1.0, 0.0, -1.0, 3,
                                   lyapunov=np.ones(3)))
    assert list(d) == ["classification", "delta_hat", "lambda_base", "lambda_bumped", "gamma",
                       "r_cut", "noise_floor", "drift_check_max", "checked_nodes"]


def test_identity_report_keys():
    d = _emitted(IdentityReport(0.1, 0.2, 0.3, 0.3, 0.0, 0.1, 0.1, 0.1, 10, 0.0, ["w"]))
    assert list(d) == ["mu_f", "half_mu_G", "sum", "lambda", "abs_gap", "stderr", "stderr_f",
                       "stderr_G", "paths_used", "truncated_fraction", "warnings"]
    assert d["sum"] == 0.3 and d["warnings"] == ["w"]


def test_check_result_keys_with_a_report_detail():
    d = _emitted(CheckResult("probe", True, 0.1, 1e-3, 0.0,
                             detail={"bump": ProbeReport(0.1, 0.2, 0.1, True, 1e-3, 1e-4)}))
    assert list(d) == ["name", "passed", "value", "target", "tol", "detail"]
    assert list(d["detail"]["bump"])[:2] == ["lambda_base", "lambda_bumped"]


def test_sweep_row_keys_match_the_csv_header():
    d = _emitted(SweepRow(2.0, 0.01, 0.24, 1e-12, 3))
    assert list(d) == ["radius", "spacing", "lambda", "residual", "policy_sweeps"]
    assert list(d) == SWEEP_CSV_HEADER
