"""Tests of the benchmark's tracer and of tracing's effect on run outputs.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cellpilot  # noqa: E402
from tracer import SPANS, Tracer, tail_percentile  # noqa: E402
from workloads import _digest  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(0.25))

    def mid_body():
        clock.work(1.0)
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        clock.work(2.0)
        mid()
        clock.work(0.5)
        mid()

    tracer.wrap("outer", outer_body)()

    stats = tracer.stats
    assert stats["leaf"].calls == 4
    assert stats["leaf"].self_s == pytest.approx(1.0)
    assert stats["mid"].calls == 2
    assert stats["mid"].durations == [pytest.approx(1.5)] * 2
    assert stats["mid"].self_s == pytest.approx(2.0)
    assert stats["outer"].durations == [pytest.approx(5.5)]
    assert stats["outer"].self_s == pytest.approx(2.5)
    # self times add up to the root's wall time
    assert sum(s.self_s for s in stats.values()) == pytest.approx(5.5)
    assert tracer.parents == {(None, "outer"): 1, ("outer", "mid"): 2,
                              ("mid", "leaf"): 4}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.work(1.0)
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)

    def outer_body():
        with pytest.raises(ValueError):
            failing()
        clock.work(3.0)

    tracer.wrap("outer", outer_body)()
    assert tracer.stats["failing"].self_s == pytest.approx(1.0)
    assert tracer.stats["outer"].self_s == pytest.approx(3.0)
    assert tracer.parents[("outer", "failing")] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) == 100.0


def _bindings():
    """Every name bound in the package, its submodules and their classes."""
    owners = [cellpilot] + [
        importlib.import_module(f"cellpilot.{m.name}")
        for m in pkgutil.iter_modules(cellpilot.__path__)]
    owners += [v for o in list(owners) for v in vars(o).values()
               if isinstance(v, type) and v.__module__.startswith("cellpilot")]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_patch_covers_every_binding_and_unpatch_restores_it():
    before = _bindings()
    originals = {id(cellpilot.min_rate), id(cellpilot.total_costs),
                 id(cellpilot.forward), id(vars(cellpilot.PilotEnv)["step"]),
                 id(vars(cellpilot.ScenarioBundle)["build"])}
    tracer = Tracer()
    tracer.patch(cellpilot)
    try:
        assert tracer.absent == []
        during = _bindings()
        # no module keeps a copy of a spanned original
        assert not any(id(v) in originals for v in during.values())
        assert cellpilot.harness.min_rate is cellpilot.rate.min_rate
        assert cellpilot.harness.min_rate is not before[
            (id(cellpilot.harness), "min_rate")]
        assert isinstance(vars(cellpilot.ScenarioBundle)["build"], classmethod)
    finally:
        tracer.unpatch()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_function_becomes_an_absent_span():
    tracer = Tracer()
    spans = SPANS + ("qnn.no_such_function", "env.NoSuchClass.step",
                     "no_such_module.f")
    tracer.patch(cellpilot, spans=spans)
    tracer.unpatch()
    assert tracer.absent == ["qnn.no_such_function", "env.NoSuchClass.step",
                             "no_such_module.f"]


def test_traced_run_writes_the_same_bytes(tmp_path):
    # 220 steps: the Q-network trains on the last 21 and rates run 4 times
    preset = dataclasses.replace(cellpilot.presets()["desk"], total_steps=220)
    cellpilot.run_experiment(preset, 5, out_dir=tmp_path / "plain")
    tracer = Tracer()
    tracer.patch(cellpilot)
    try:
        cellpilot.run_experiment(preset, 5, out_dir=tmp_path / "traced")
    finally:
        tracer.unpatch()
    for name in ("qnn.backward", "qnn.rmsprop_step", "rate.min_rate",
                 "assignment.exhaustive_search", "env.PilotEnv.step",
                 "scenario.ScenarioBundle.build"):
        assert tracer.stats[name].calls > 0, name
    assert tracer.counters["qnn.rmsprop_step.applied"] == 21
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in plain:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes()), name
    assert _digest(tmp_path / "plain") == _digest(tmp_path / "traced")


def test_speed_factor_is_the_median_over_a_runs_probes():
    import speed

    nominal = dict(speed.NOMINAL_S)
    slow = {k: 1.5 * v for k, v in nominal.items()}
    assert speed.factor(nominal) == pytest.approx(1.0)
    assert speed.run_factor([nominal, slow, slow]) == pytest.approx(1.5)
    assert speed.run_factor([]) == 1.0
    probe = speed.probe(0.0)
    assert probe.keys() == nominal.keys()
    assert all(t > 0 for t in probe.values())
