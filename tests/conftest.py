"""Fixtures shared by the test modules."""

import pytest
from hypothesis import settings

from cusplab import sturm

# Tier-1 draws the same Hypothesis examples on every run (and so keeps no
# example database): a latent fault fails every run or none, never at
# random and then on every later run from a replayed `.hypothesis/` entry.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def counts_reversed_in_lambda(monkeypatch):
    """Make every Sturm pass return its lanes in reversed lambda order."""
    real = sturm._sturm_pass

    def reversed_pass(diag, off, mass, lams, sizes=None, floors=None):
        counts, broke, settled = real(diag, off, mass, lams, sizes, floors)
        return counts[..., ::-1], broke[..., ::-1], settled[..., ::-1]

    monkeypatch.setattr(sturm, "_sturm_pass", reversed_pass)


@pytest.fixture
def counts_shrinking_with_domain(monkeypatch):
    """Make every checkpointed Sturm pass return its checkpoints in reversed order."""
    real = sturm._sturm_pass

    def reversed_pass(diag, off, mass, lams, sizes=None, floors=None):
        result = real(diag, off, mass, lams, sizes, floors)
        return result if sizes is None else tuple(x[::-1] for x in result)

    monkeypatch.setattr(sturm, "_sturm_pass", reversed_pass)
