"""Golden SimStats digests: the refactor safety net for the timing model.

``golden_simstats.json`` (next to this file) holds one sha256 per
(kernel, config) of the canonical ``SimStats.to_dict()`` payload,
serialized as sorted-key JSON. The matrix is every kernel under the five
storage schemes the paper compares, one config from each figure's sweep,
and a stall-heavy ``memory_latency=1500`` run. Any change to the timing
model that moves a single counter — or a single packed lifetime — shows
up here as a named mismatch.

A change that is *meant* to move the numbers regenerates the file with
``PYTHONPATH=src python -m tests.integration.test_golden_stats`` and
says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from repro.core.config import (
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.core.simulator import simulate
from repro.workloads.suite import benchmark_names, load_trace

GOLDEN = Path(__file__).with_name("golden_simstats.json")
SCALE = 0.05

#: Per-kernel configs: the paper's five storage schemes plus one point
#: from each figure's sweep.
CONFIGS = {
    "monolithic": lambda: monolithic_config(3),
    "two_level": two_level_config,
    "lru": lru_config,
    "non_bypass": non_bypass_config,
    "use_based": use_based_config,
    "fig6_64e_4way_preg": lambda: use_based_config(
        cache_assoc=4, indexing="preg"),
    "fig7_minimum_1way": lambda: use_based_config(
        indexing="minimum", cache_assoc=1),
    "fig11_16e": lambda: use_based_config(cache_entries=16),
    "fig12_backing_6": lambda: use_based_config(backing_read_latency=6),
    "fig12_two_level_l2_6": lambda: two_level_config(two_level_l2_latency=6),
    "monolithic_1cycle": lambda: monolithic_config(1),
}

#: Extra single-kernel points outside the kernel x config matrix.
EXTRA = {
    "pointer_chase/use_based_mem1500": (
        "pointer_chase", lambda: use_based_config(memory_latency=1500)),
}


def _points():
    for kernel in benchmark_names():
        for name, factory in CONFIGS.items():
            yield f"{kernel}/{name}", kernel, factory
    for key, (kernel, factory) in EXTRA.items():
        yield key, kernel, factory


def stats_digest(stats) -> str:
    """sha256 of the canonical (sorted-key JSON) ``to_dict()`` payload."""
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    return {
        key: stats_digest(simulate(load_trace(kernel, scale=SCALE), factory()))
        for key, kernel, factory in _points()
    }


def test_simstats_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == SCALE
    expected = golden["digests"]
    actual = compute_digests()
    assert sorted(actual) == sorted(expected), "golden matrix changed"
    mismatched = [key for key in expected if actual[key] != expected[key]]
    assert mismatched == [], f"SimStats moved for {mismatched}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"scale": SCALE, "digests": compute_digests()}, indent=1, sort_keys=True,
    ) + "\n")
