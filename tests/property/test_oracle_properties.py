"""Property test: every storage scheme is oracle-clean on random programs.

For arbitrary small straight-line programs the timing model must replay
the committed trace faithfully and satisfy the differential oracle's
conservation invariants under every register-storage scheme. This is
the randomized counterpart of the kernel-based oracle suite in
``tests/integration/test_core_equivalence.py``.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402

from repro.core.config import (  # noqa: E402
    NAMED_CONFIGS,
    monolithic_config,
)
from repro.core.pipeline import Pipeline  # noqa: E402
from repro.testing.oracle import check_run  # noqa: E402
from repro.vm.machine import Machine  # noqa: E402

from tests.property.test_vm_properties import (  # noqa: E402
    straight_line_programs,
)

SCHEMES = [
    *(NAMED_CONFIGS[name] for name in sorted(NAMED_CONFIGS)),
    lambda **kw: monolithic_config(1, **kw),
]


@settings(max_examples=20, deadline=None)
@given(program=straight_line_programs())
def test_every_scheme_oracle_clean_on_random_traces(program):
    trace = Machine(program).run()
    for factory in SCHEMES:
        stats = Pipeline(trace, factory()).run()
        assert check_run(trace, stats) == []
