"""Span recording: wrappers, aggregation of hot calls, restore on exit."""

import sys
import types

import pytest

from spans import SpanRecorder


class FakeClock:
    """Advances one unit per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_module():
    module = types.ModuleType("repro_benchtest_fake")

    class Engine:
        def step(self, n):
            return n + 1

        def run(self, count):
            return sum(self.step(i) for i in range(count))

    def helper():
        return Engine().run(3)

    module.Engine = Engine
    module.helper = helper
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_nested_self_times_sum_to_traced_wall(fake_module):
    recorder = SpanRecorder(clock=FakeClock())
    recorder.install((
        ("top", "repro_benchtest_fake:helper", False),
        ("engine", "repro_benchtest_fake:Engine.run", False),
        ("step", "repro_benchtest_fake:Engine.step", True),
    ))
    try:
        with recorder.span("root"):
            assert fake_module.helper() == 6
            assert fake_module.helper() == 6
    finally:
        recorder.restore()
    own = recorder.self_times()
    root = recorder.spans[0]
    assert root.name == "root"
    assert sum(own) == pytest.approx(root.total)
    layers = recorder.by_layer()
    assert layers["step"]["calls"] == 6
    assert layers["engine"]["calls"] == 2
    assert layers["top"]["calls"] == 2
    # One aggregate span per parent, not one span per hot call.
    assert sum(1 for span in recorder.spans if span.name == "Engine.step") == 2
    wall_minus_layers = root.total - sum(
        row["self_s"] for row in layers.values()
    )
    assert wall_minus_layers == pytest.approx(own[0])


def test_restore_puts_originals_back_and_missing_targets_are_absent(fake_module):
    original_run = fake_module.Engine.__dict__["run"]
    original_helper = fake_module.helper
    recorder = SpanRecorder(clock=FakeClock())
    recorder.install((
        ("engine", "repro_benchtest_fake:Engine.run", False),
        ("top", "repro_benchtest_fake:helper", False),
        ("gone", "repro_benchtest_fake:Engine.deleted_method", True),
        ("gone", "repro_benchtest_missing_module:anything", False),
    ))
    assert fake_module.Engine.__dict__["run"] is not original_run
    recorder.restore()
    assert fake_module.Engine.__dict__["run"] is original_run
    assert fake_module.helper is original_helper
    assert recorder.absent == [
        "repro_benchtest_fake:Engine.deleted_method",
        "repro_benchtest_missing_module:anything",
    ]


def test_classmethod_targets_stay_classmethods(fake_module):
    class Stats:
        @classmethod
        def build(cls, value):
            return (cls, value)

    fake_module.Stats = Stats
    recorder = SpanRecorder(clock=FakeClock())
    recorder.install((("stats", "repro_benchtest_fake:Stats.build", False),))
    try:
        assert Stats.build(3) == (Stats, 3)
    finally:
        recorder.restore()
    assert recorder.by_layer()["stats"]["calls"] == 1
