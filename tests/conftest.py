"""Fixtures shared by the test modules."""

import pytest

from cusplab import sturm


@pytest.fixture
def counts_reversed_in_lambda(monkeypatch):
    """Make every Sturm pass return its lanes in reversed lambda order."""
    real = sturm._sturm_pass

    def reversed_pass(diag, off, mass, mass_off, lams):
        counts, broke = real(diag, off, mass, mass_off, lams)
        return counts[..., ::-1], broke[..., ::-1]

    monkeypatch.setattr(sturm, "_sturm_pass", reversed_pass)
