"""Differential-oracle check of the timing loop on real kernels.

For every kernel x storage scheme below, the simulated run must replay
the committed trace faithfully and satisfy the oracle's conservation
invariants (:func:`repro.testing.oracle.check_run`). Bit-for-bit
stability of the statistics themselves is pinned separately by the
golden digests in ``test_golden_stats.py``.
"""

import pytest

from repro.core.config import (
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.testing.oracle import check_run
from repro.workloads.suite import load_trace

SCHEMES = {
    "use_based": use_based_config,
    "monolithic": lambda **kw: monolithic_config(3, **kw),
    "two_level": two_level_config,
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("bench", ["pointer_chase", "interp", "compress"])
def test_cores_bit_identical_and_oracle_clean(bench, scheme):
    trace = load_trace(bench, scale=0.12)
    stats = Pipeline(trace, SCHEMES[scheme]()).run()
    assert check_run(trace, stats) == []
