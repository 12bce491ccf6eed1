"""Monte Carlo summary helpers."""

from __future__ import annotations

import pytest

from qscale.mc import _ad_critical_1pct


@pytest.mark.parametrize("n, want", [(20, 0.992), (200, 1.031), (1000, 1.034)])
def test_ad_critical_value_1pct(n, want):
    # Stephens (1974) case-3 value 1.035 / (1 + 0.75/n + 2.25/n^2), 3 decimals
    assert _ad_critical_1pct(n) == want
