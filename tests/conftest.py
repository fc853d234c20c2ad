"""Session-wide fixtures."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.config import epic_config, epic_with_alus

# The cross-engine and vector-engine random-program differentials
# (tests/backend/test_differential_property.py) run a fixed corpus in
# tier-1; CI widens them to 300 seeded programs by loading this profile.
settings.register_profile("cross-engine-wide", max_examples=300,
                          deadline=None)


@pytest.fixture(scope="session")
def default_config():
    return epic_config()


@pytest.fixture(scope="session")
def one_alu_config():
    return epic_with_alus(1)


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"{n}alu")
def alu_config(request):
    return epic_with_alus(request.param)
