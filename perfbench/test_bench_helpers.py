"""Unit tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, conv_flops, percentile, self_times, tail_percentile  # noqa: E402


def _span(i, start, end, parent=None, name="x", **attrs):
    return Span(i, name, start, end, parent, "run", attrs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0),
                 _span(3, 1.5, 2.0, 1)]
        own = self_times(spans)
        assert own[0] == pytest.approx(7.0)
        assert own[1] == pytest.approx(1.5)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(0.5)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 5.0, 0), _span(2, 4.0, 7.0, 0),
                 _span(3, 9.0, 12.0, 0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_tracer_links_parents_through_wrappers(self):
        clock = FakeClock()
        tracer = Tracer("t", clock=clock)

        def inner():
            clock.now += 2.0
            return "done"

        traced_inner = tracer.wrap("inner", inner)

        def outer():
            clock.now += 1.0
            out = traced_inner()
            clock.now += 3.0
            return out

        assert tracer.wrap("outer", outer)() == "done"
        outer_span, inner_span = tracer.spans
        assert inner_span.parent == outer_span.id and outer_span.parent is None
        own = self_times(tracer.spans)
        assert own[outer_span.id] == pytest.approx(4.0)
        assert own[inner_span.id] == pytest.approx(2.0)

    def test_patch_and_restore(self):
        class Module:
            @staticmethod
            def f(x):
                return x + 1

        original = Module.f
        tracer = Tracer("t")
        tracer.patch(Module, "f", "m.f")
        assert Module.f(1) == 2 and [s.name for s in tracer.spans] == ["m.f"]
        tracer.restore()
        assert Module.f is original

    def test_peak_alloc_covers_children(self):
        tracer = Tracer("t", memory=True)
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    block = np.ones(1 << 20)  # 8 MiB
                    del block
                small = np.ones(1 << 10)
                del small
        finally:
            tracer.restore()
        outer, inner = tracer.spans
        assert inner.peak_alloc >= 8 * 2**20
        assert outer.peak_alloc >= inner.peak_alloc


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([3.0], 99) == 3.0

    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        samples = list(range(n))
        tail = tail_percentile(samples)
        if expected is None:
            assert tail is None
        else:
            p, value = tail
            assert p == expected
            assert sum(1 for s in samples if s > value) >= 10


class TestConvFlops:
    def test_hand_count(self):
        # depth 1: down at T, bottleneck at T/2, up at T, output at T.
        plan = [("down", 1, 2, 1, 3), ("bottleneck", 0, 4, 2, 3), ("up", 1, 2, 6, 3),
                ("output", 0, 1, 2, 1)]
        t = 8
        expected = 2 * (2 * 1 * 3 * 8 + 4 * 2 * 3 * 4 + 2 * 6 * 3 * 8 + 1 * 2 * 1 * 8)
        assert conv_flops(plan, t, batch=1) == expected
        assert conv_flops(plan, t, batch=5) == 5 * expected

    def test_matches_the_nets_layer_lengths(self):
        from hypersep import net

        from workload import layer_plan

        model = net.init_net(net.NetConfig(depth=3, base_features=8, input_len=1024))
        _, cache = net.forward_batch(model, np.zeros((2, 1024)))
        expected = sum(
            2 * w.shape[0] * w.shape[1] * w.shape[2] * x.shape[0] * x.shape[2]
            for w, x in zip((l.weights for l in model.layers), cache.conv_inputs)
        )
        assert conv_flops(layer_plan(model), 1024, batch=2) == expected


class TestWorkloadHelpers:
    def test_brute_force_energy_of_the_tetrahedron(self):
        from hypersep.energy import MheConfig

        from workload import brute_force_energy

        tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        energy, clamped = brute_force_energy(tetra, MheConfig("full", "euclidean", 1))
        assert energy == pytest.approx(12 / math.sqrt(8 / 3), rel=1e-14)
        assert clamped == 0
        # Two coincident rows make two clamped ordered pairs.
        _, clamped = brute_force_energy(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                        MheConfig("full", "euclidean", 0))
        assert clamped == 2

    def test_acceptance_replay(self):
        from workload import accepted_per_eval

        solve = _span(0, 0.0, 100.0, name="thomson.minimize_energy")
        seq = [("thomson.restart", None), ("energy.layer_energy", 5.0),
               ("energy.layer_energy", 4.0), ("energy.layer_energy", 4.5),
               ("energy.layer_energy", 3.0), ("thomson.restart", None),
               ("energy.layer_energy", 9.0), ("energy.layer_energy", 8.0)]
        spans = [solve] + [
            _span(i + 1, float(i), float(i) + 0.5, 0, name, **({} if e is None else {"energy": e}))
            for i, (name, e) in enumerate(seq)
        ]
        assert accepted_per_eval(spans, solve) == (3, 6)
