"""The benchmark's own tests: each correctness check can fail.

    python3 -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import points as P  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def direct():
    return W.direct_ops(W.load_oracles())


def _pick(ops, fragment):
    return next(op for op in ops if fragment in op.name and op.fault is None)


@pytest.mark.parametrize("fragment", ["h_density(0.3,", "l_density(0.7,", "space_fractional_density(1.0, 0.7"])
def test_density_off_by_one_part_in_a_million_is_wrong(direct, fragment):
    op = _pick(direct, fragment)
    value = op.call()
    assert op.check(value) > 8.0  # the oracle and the route agree to more digits
    with pytest.raises(W.Wrong):
        op.check(value * (1.0 + 1e-6))


def test_negative_density_counts_as_failed(direct):
    op = _pick(direct, "h_density(0.5,")
    outcome = W.Outcome()
    outcome.record(op, True, -abs(op.call()))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, True)
    assert op.name in outcome.unexpected


def test_wrong_value_makes_the_run_incorrect(direct):
    op = _pick(direct, "l_density(0.3,")
    outcome = W.Outcome()
    outcome.record(op, True, op.call() * (1.0 + 1e-6))
    assert (outcome.failed, outcome.correct) == (0, False)


def test_known_faults_fail_today(direct):
    outcome = W.Outcome()
    for op in direct:
        if op.fault is not None:
            try:
                outcome.record(op, True, op.call())
            except Exception as exc:  # noqa: BLE001 - the fault itself
                outcome.record(op, False, exc)
    assert outcome.failed == len(P.DIRECT_FAULTS) and outcome.correct


def test_underflowing_reference_accepts_only_tiny_values():
    assert W.check_value(0.0, 0.0, W.RTOL_DIRECT) == W.DIGITS_CAP
    with pytest.raises(W.NoAnswer):
        W.check_value(3.5e-14, 0.0, W.RTOL_DIRECT)


def _cli_ops(runner, reports=None):
    reports = reports or {s: "{}\n" for s in W.VERIFY_SUITES}
    return {op.name: op for op in W.cli_ops(7, runner, reports)}


def test_verify_report_differing_by_one_byte_is_wrong():
    report = json.dumps({"suite": "laws", "tests": []}, indent=2, sort_keys=True) + "\n"
    op = _cli_ops(None, {"montecarlo": report, "laws": report})["verify laws"]
    assert op.check(W.CliResult(0, report, "", 1.0)) is None
    with pytest.raises(W.Wrong):
        op.check(W.CliResult(0, report[:-2] + " \n", "", 1.0))
    with pytest.raises(W.NoAnswer):
        op.check(W.CliResult(1, report, "", 1.0))


def _sample_output(draws):
    return "# dist\nvalue\n" + "\n".join(f"{v:.12g}" for v in draws) + "\n"


def test_ks_distance_above_its_bound_is_wrong():
    op = _cli_ops(None)["sample subordinator nu=0.5"]
    rng = np.random.default_rng(3)
    n = W.N_DRAWS
    exact = 1.0 / (4.0 * rng.gamma(0.5, 1.0, size=n))  # one-sided 1/2-stable law at t = 1
    assert op.check(W.CliResult(0, _sample_output(exact), "", 1.0)) is None
    with pytest.raises(W.Wrong):
        op.check(W.CliResult(0, _sample_output(exact * 1.1), "", 1.0))


def test_cli_table_off_by_one_part_in_a_million_is_wrong():
    op = _cli_ops(None)["tabulate l nu=0.5"]
    xs = P.grid_x(P.CLI_L_GRID)
    rows = [(x, 1.0, float(np.exp(-x * x / 4.0) / np.sqrt(np.pi))) for x in xs]

    def table(scale):
        return "x,t,value,method\n" + "".join(f"{x:.12g},{t:.12g},{v * scale:.12g},closed\n" for x, t, v in rows)

    assert op.check(W.CliResult(0, table(1.0), "", 1.0)) > 10.0
    with pytest.raises(W.Wrong):
        op.check(W.CliResult(0, table(1.0 + 1e-6), "", 1.0))
    with pytest.raises(W.NoAnswer):
        op.check(W.CliResult(2, "", "error: usage", 1.0))
