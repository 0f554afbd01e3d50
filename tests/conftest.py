import pytest
from hypothesis import settings

from tcpnsched import builtin_paper_workload

# Profiles for the Hypothesis tests that set no settings of their own, such as
# test_reference_kernel.py's: tier-1 draws a fixed set of examples, and
# `pytest --hypothesis-profile deep` draws twenty times as many afresh.
settings.register_profile("tier1", max_examples=100, derandomize=True, database=None, deadline=None)
settings.register_profile("deep", max_examples=2_000, derandomize=False, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def table1():
    return builtin_paper_workload()
