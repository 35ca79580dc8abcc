"""The transport self-checks: each family reports a violation it meets,
and a run over no instances is refused instead of passing."""

import json
from types import SimpleNamespace

import pytest

from mdelab import selfcheck
from mdelab.cli import main
from mdelab.errors import ValidationError


def zero_distance(real):
    # W(mu, nu) = 0 for distinct random supports: metric_axioms' positivity
    return lambda mu, nu, method="auto": SimpleNamespace(distance=0.0)


def simplex_shifted(real):
    # the simplex side drifts 1e-6 from the monotone coupling
    def wasserstein(mu, nu, method="auto"):
        shift = 1e-6 if method == "simplex" else 0.0
        return SimpleNamespace(distance=real(mu, nu, method).distance + shift)
    return wasserstein


def brute_force_above(real):
    return lambda mu, nu: real(mu, nu) + 1e-6


def dual_bound_above_primal(real):
    # a witness's lower bound beats W by 1e-6, far outside DUAL_TOL
    return lambda mu, nu, witnesses: -1e-6


FAULTS = {
    "metric_axioms": ("wasserstein", zero_distance),
    "fast_path_vs_lp": ("wasserstein", simplex_shifted),
    "brute_force_small": ("_brute_force_equal_mass", brute_force_above),
    "dual_feasibility": ("kr_dual_gap", dual_bound_above_primal),
}


def test_every_family_has_a_fault():
    assert set(FAULTS) == {name for name, _ in selfcheck.CHECKS}


@pytest.mark.parametrize("name, check", selfcheck.CHECKS)
def test_a_family_fails_with_a_negative_margin(monkeypatch, name, check):
    attr, fault = FAULTS[name]
    monkeypatch.setattr(selfcheck, attr, fault(getattr(selfcheck, attr)))
    result = check(instances=3)
    assert result.name == name
    assert result.passed is False
    assert result.margin < 0.0


def test_check_subcommand_writes_its_table_and_exits_3(monkeypatch, capsys):
    attr, fault = FAULTS["dual_feasibility"]
    monkeypatch.setattr(selfcheck, attr, fault(getattr(selfcheck, attr)))
    assert main(["check", "--instances", "3"]) == 3
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()]
    assert rows[0] == ["check_name", "pass", "margin"]
    assert {row[0]: row[1] for row in rows[1:]} == {
        "metric_axioms": "true", "fast_path_vs_lp": "true",
        "brute_force_small": "true", "dual_feasibility": "false"}
    assert float(rows[-1][2]) < 0.0
    error = json.loads(captured.err)["error"]
    assert error["type"] == "numerical"


@pytest.mark.parametrize("instances", [0, -3])
def test_no_instances_is_refused(instances):
    with pytest.raises(ValidationError) as info:
        selfcheck.run_all_checks(instances=instances)
    assert info.value.field == "instances"


@pytest.mark.parametrize("argv", [["--instances", "0"], ["--instances", "-3"]])
def test_check_subcommand_refuses_no_instances(capsys, argv):
    assert main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["field"]) == ("validation", "instances")
