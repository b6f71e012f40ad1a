"""The paper's claims, checked: every experiment against the claims beside it.

``make figures`` runs the parametrised check (``-m figures``; tier-1
deselects it, ~50 s for all twenty). The evaluator's own tests and the
registry's coverage run in tier-1.
"""

from __future__ import annotations

import pytest

from repro.bench.claims import Claim, failures, grid
from repro.bench.experiments import EXPERIMENTS, run_oe, run_sov
from repro.bench.report import ExperimentResult


@pytest.mark.figures
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_meets_its_claims(name):
    experiment = EXPERIMENTS[name]
    result = experiment()
    assert failures(result, experiment.claims) == []


def test_every_experiment_has_a_claim():
    assert len(EXPERIMENTS) == 20
    for name, experiment in EXPERIMENTS.items():
        assert experiment.claims, name
        assert all(isinstance(claim, Claim) for claim in experiment.claims), name


def _sweep() -> ExperimentResult:
    result = ExperimentResult(
        name="Figure X", description="demo", headers=["system", "skew", "tput"]
    )
    for skew, harmony, aria in ((0.0, 10.0, 8.0), (1.0, 5.0, 6.0)):
        result.add("harmony", skew, harmony)
        result.add("aria", skew, aria)
    return result


def _above_aria(over, **kwargs) -> Claim:
    return Claim(
        "ordering",
        "harmony above aria",
        lambda r, skew: r.cell("tput", system="harmony", skew=skew)
        > r.cell("tput", system="aria", skew=skew),
        over=over,
        **kwargs,
    )


class TestClaimEvaluator:
    def test_false_expected_true_claim_fails_naming_its_row(self):
        lines = failures(_sweep(), [_above_aria(grid(skew=(0.0, 1.0)))])
        assert lines == ["Figure X: ordering 'harmony above aria' at skew=1.0: false"]

    def test_true_expected_true_and_false_expected_false_claims_pass(self):
        claims = [
            _above_aria(grid(skew=(0.0,))),
            _above_aria(grid(skew=(1.0,)), expected=False, reason="known deviation"),
        ]
        assert failures(_sweep(), claims) == []

    def test_expected_false_claim_that_turns_true_fails(self):
        deviation = _above_aria(grid(skew=(0.0, 1.0)), expected=False, reason="was below")
        (line,) = failures(_sweep(), [deviation])
        assert "at skew=0.0: true, expected false (was below)" in line

    @pytest.mark.parametrize("reason", ["", "   "])
    def test_expected_false_claim_needs_a_reason(self, reason):
        with pytest.raises(ValueError, match="needs a reason"):
            _above_aria(grid(skew=(1.0,)), expected=False, reason=reason)

    def test_unknown_kind_and_empty_points_are_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Claim("vibes", "x", lambda r: True)
        with pytest.raises(ValueError, match="no point"):
            _above_aria(())

    def test_a_point_selecting_no_row_raises(self):
        with pytest.raises(KeyError, match="selects 0 rows"):
            failures(_sweep(), [_above_aria(grid(skew=(0.5,)))])


class TestRunOverrides:
    """A misspelt config override raises at the call instead of riding
    along as a stray attribute."""

    def test_run_oe_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="num_replica"):
            run_oe("harmony", "ycsb", num_replica=80)

    def test_run_sov_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="num_replica"):
            run_sov("fabric", "ycsb", num_replica=80)
