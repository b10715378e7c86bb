"""Span arithmetic and patch hygiene of the outside-in tracer."""

import sys
import types

import pytest

from tracer import Tracer


class FakeClock:
    """A clock each test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("outer")
    clock.now = 1.0
    mid = tracer.open("mid")
    clock.now = 3.0
    leaf = tracer.open("leaf")
    clock.now = 6.0
    tracer.close(leaf)
    clock.now = 7.0
    tracer.close(mid)
    clock.now = 10.0
    tracer.close(outer)
    selfs = tracer.self_times()
    assert selfs[outer] == pytest.approx(10.0 - 6.0)  # mid lasted 6
    assert selfs[mid] == pytest.approx(6.0 - 3.0)  # leaf lasted 3
    assert selfs[leaf] == pytest.approx(3.0)
    assert sum(selfs) == pytest.approx(10.0)


def test_generator_is_timed_per_next_and_nests_callees():
    clock = FakeClock()
    tracer = Tracer(clock)

    def callee():
        clock.now += 2.0

    traced_callee = tracer.wrap(callee, "callee")

    def numbers():
        for i in range(2):
            clock.now += 1.0
            traced_callee()
            yield i

    gen = tracer.wrap(numbers, "gen")
    root = tracer.open("op:root")
    seen = []
    for value in gen():
        clock.now += 5.0  # consumer work between next() calls
        seen.append(value)
    tracer.close(root)
    assert seen == [0, 1]
    layer = tracer.layer_self_times("op:")
    # two yielding next() calls at 1 s each plus the final StopIteration
    assert layer["gen"] == pytest.approx(2.0)
    assert layer["callee"] == pytest.approx(4.0)
    assert layer["op:root"] == pytest.approx(10.0)
    names = [span[0] for span in tracer.spans]
    assert names.count("gen") == 3  # one span per next(), incl. the last
    callee_parents = {tracer.spans[s[3]][0]
                      for s in tracer.spans if s[0] == "callee"}
    assert callee_parents == {"gen"}
    assert tracer.counts["callee.calls"] == 2


def test_sat_time_is_split_by_nearest_caller_layer():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("op:row"):
        for caller in ("timing.viability", "atpg.proofengine"):
            outer = tracer.open(caller)
            inner = tracer.open("sat.solve")
            clock.now += 1.5 if caller.startswith("timing") else 0.5
            tracer.close(inner)
            tracer.close(outer)
    layer = tracer.layer_self_times("op:")
    assert layer["sat.solve.timing"] == pytest.approx(1.5)
    assert layer["sat.solve.atpg"] == pytest.approx(0.5)


def test_layer_times_cover_only_the_named_top_level_spans():
    """Set-up work is not charged to the per-layer pass figures."""
    clock = FakeClock()
    tracer = Tracer(clock)
    for top, seconds in (("setup", 4.0), ("op:a", 1.0), ("op:b", 2.0)):
        with tracer.span(top):
            with tracer.span("synth.speed_up"):
                with tracer.span("timing.sta"):
                    clock.now += seconds
                clock.now += 0.5
    assert tracer.layer_self_times("op:")["timing.sta"] == pytest.approx(3.0)
    assert tracer.layer_self_times("setup")["timing.sta"] == (
        pytest.approx(4.0)
    )
    assert tracer.total_time("synth.speed_up", "setup") == pytest.approx(4.5)


def test_stats_deltas_count_outermost_call_once():
    class Engine:
        def __init__(self):
            self.stats = {"work": 0}

        def outer(self):
            self.stats["work"] += 1
            return self.inner()

        def inner(self):
            self.stats["work"] += 10
            return "done"

    tracer = Tracer()
    stats = lambda args: args[0].stats  # noqa: E731
    for name in ("outer", "inner"):
        tracer.patch(Engine, name, tracer.wrap(
            getattr(Engine, name), "engine", stats=stats, prefix="engine.",
        ))
    assert Engine().outer() == "done"
    assert tracer.counts["engine.work"] == 11
    tracer.restore()


def test_restore_puts_back_every_patched_attribute():
    """After the traced run, no module or class attribute of the program
    is a wrapper, so untraced passes never execute tracing code."""
    import layers

    tracer = Tracer()
    layers.install(tracer)
    patched = [(owner, attr) for owner, attr, _o, _h in tracer._patches]
    assert len(patched) > 20
    # a module imported while the patches are live copies a wrapper
    late = types.ModuleType("repro._perfbench_late_import")
    from repro.atpg import faultsim
    late.fault_coverage = faultsim.fault_coverage
    assert tracer.is_wrapper(late.fault_coverage)
    sys.modules[late.__name__] = late
    try:
        tracer.restore()
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None:
                for attr, value in vars(module).items():
                    assert not tracer.is_wrapper(value), (module_name, attr)
                    if isinstance(value, type):
                        for name, member in vars(value).items():
                            assert not tracer.is_wrapper(member), (
                                module_name, attr, name
                            )
        assert not tracer.is_wrapper(late.fault_coverage)
    finally:
        del sys.modules[late.__name__]
    # calls after the restore record nothing
    before = len(tracer.spans)
    from repro.circuits import carry_skip_adder
    from repro.core.kms import kms

    kms(carry_skip_adder(2, 2))
    assert len(tracer.spans) == before


def test_traced_kms_attributes_layers_and_counts():
    import layers
    from repro.circuits import carry_skip_adder
    from repro.sim.kernel import SimWorkTracker
    from repro.timing import UnitDelayModel

    tracer = Tracer()
    layers.install(tracer)
    try:
        kernel = SimWorkTracker()
        with tracer.span("op:csa4.2"):
            result = sys.modules["repro.core.kms"].kms(
                carry_skip_adder(4, 2),
                model=UnitDelayModel(use_arrival_times=False),
            )
        metrics = layers.layer_metrics(tracer, kernel.counters, 0.0)
    finally:
        tracer.restore()
    assert metrics["core.kms.iterations"] == result.iterations > 0
    assert metrics["atpg.podem.calls"] == result.counters["podem_calls"]
    assert metrics["atpg.proof.podem_calls"] == result.counters["podem_calls"]
    assert metrics["timing.paths_enumerated"] == (
        result.counters["paths_enumerated"]
    )
    for layer in ("atpg.podem", "timing.sta", "timing.paths",
                  "network.transform", "sim.simulate5", "core.kms"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert set(metrics) <= set(layers.metric_names())
    total = sum(tracer.self_times())
    root = tracer.spans[0]
    assert total == pytest.approx(root[2] - root[1])
