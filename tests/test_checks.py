"""Each named check fails on an input just past its bound and passes just inside it."""

import math
from types import SimpleNamespace

import pytest

from svfree import checks
from svfree.picard import ContractionReport


def _history(ratio):
    # update totals 0.02 -> 0.018 decrease, so only the ratio is judged
    return [ContractionReport(1, 1e-2, 1e-2, math.nan), ContractionReport(2, 9e-3, 9e-3, ratio)]


@pytest.mark.parametrize("check, inside, outside", [
    (checks.contraction_monotonicity, _history(0.89), _history(0.9)),
    (checks.eta_bound, SimpleNamespace(eta_x_min=0.5, eta_x_max=1.5),
     SimpleNamespace(eta_x_min=0.4999, eta_x_max=1.0)),
    (checks.apriori_ceiling, [SimpleNamespace(within_apriori=True)] * 2,
     [SimpleNamespace(within_apriori=True), SimpleNamespace(within_apriori=False)]),
], ids=["contraction-monotonicity", "eta-bound", "apriori-ceiling"])
def test_check_fails_just_past_its_bound(check, inside, outside):
    assert check(inside).passed is True
    assert check(outside).passed is False


def test_contraction_needs_decreasing_updates():
    growing = [ContractionReport(1, 1e-2, 1e-2, math.nan), ContractionReport(2, 1e-2, 1e-2, 0.5)]
    assert not checks.contraction_monotonicity(growing).passed
