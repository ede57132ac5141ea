"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from metrics import (  # noqa: E402
    MAX_FIT_ERROR_PX,
    FailureCount,
    fit_failure,
    percentile,
    samples_beyond,
    self_times,
    supported_percentile,
)


# ------------------------------------------------------------ percentile rule

@pytest.mark.parametrize("n", [1, 2, 9, 10, 40, 91, 92, 99, 100, 101, 250])
@pytest.mark.parametrize("p", [50, 80, 90, 95, 99])
def test_samples_beyond_counts_values_above_the_percentile(n, p):
    values = np.random.default_rng(n * 1000 + p).permutation(n).astype(float)
    above = int(np.sum(values > percentile(values, p)))
    assert samples_beyond(n, p) == above


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert supported_percentile(100, 90)
    assert not supported_percentile(91, 90)
    assert supported_percentile(92, 90)
    assert not supported_percentile(40, 90)
    assert supported_percentile(40, 50)


def test_median_matches_middle_value():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


# ------------------------------------------------------------ self times

def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    # Children [1, 4] and [3, 5] overlap; [9, 12] overhangs the parent's end.
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 4.0, 5.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1:].tolist() == [3.0, 2.0, 3.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    starts, ends, parents = [], [], []

    def build(lo, hi, parent, depth):
        idx = len(starts)
        starts.append(lo)
        ends.append(hi)
        parents.append(parent)
        if depth < 3:
            cuts = np.sort(rng.uniform(lo, hi, 6))
            for a, b in zip(cuts[::2], cuts[1::2]):
                build(a, b, idx, depth + 1)

    build(0.0, 1.0, -1, 0)
    build(2.0, 5.0, -1, 0)
    own = self_times(starts, ends, parents)
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx(1.0 + 3.0)


def test_tracer_spans_nest_under_the_operation():
    import asmfit.imaging
    from asmfit.imaging import GrayImage
    from tracing import Tracer, layer_metrics

    original = asmfit.imaging.build_pyramid
    tracer = Tracer()
    image = GrayImage(np.full((32, 32), 100.0))
    with tracer.operation("fit"):
        asmfit.imaging.build_pyramid(image, 3)
    assert asmfit.imaging.build_pyramid is original
    table = tracer.span_table()
    assert table["imaging.pyramid"]["calls"] == 1
    assert table["bench.fit"]["calls"] == 1
    layers = layer_metrics(table, tracer.counters)
    parts = sum(v for k, (v, _) in layers.items() if k.endswith(".layer_self_s"))
    assert parts + layers["trace.untraced_s"][0] == pytest.approx(layers["trace.wall_s"][0])
    assert layers["cli.overlay_s"] == (0.0, "s")


def test_missing_traced_name_is_an_error(monkeypatch):
    import tracing

    monkeypatch.setitem(tracing.WRAPS, "search.gone", ("asmfit.search.no_such_function",))
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.Tracer()


# ------------------------------------------------------------ failure counts

def test_fit_failure_reasons():
    truth = np.zeros((68, 2))
    assert fit_failure(truth + 1.0, truth) is None
    assert "non-finite" in fit_failure(np.full((68, 2), np.nan), truth)
    assert "error" in fit_failure(truth + MAX_FIT_ERROR_PX, truth)


def test_fail_frac_counts_every_kind():
    count = FailureCount()
    count.record("train", None)
    count.record("load", None)
    count.record("fit", None)
    count.record("fit", "mean landmark error 4.0 px > 3.0 px")
    assert count.total_attempted == 4
    assert count.total_failed == 1
    assert count.fail_frac() == 0.25
    assert count.base() == "1 failed of 4 (2 fit, 1 load, 1 train)"


def test_forced_failing_fits_are_counted():
    from asmfit.cli import truth_box
    from asmfit.scheme import DEFAULT_SCHEME
    from asmfit.search import config_for_mode, fit, init_shape_from_box
    from asmfit.imaging import build_pyramid
    from asmfit.svm import SvmTrainConfig
    from asmfit.synthetic import generate_face_dataset
    from asmfit.training import train_bundle
    from workloads import Bench

    faces = generate_face_dataset(7, size=96, seed=5)
    bundle, _ = train_bundle(faces[:6], DEFAULT_SCHEME, svm_config=SvmTrainConfig(epochs=30))
    cfg = config_for_mode(bundle, "asm_svm")
    sample = faces[6]

    def fit_from(box):
        def fn():
            init = init_shape_from_box(bundle.shape_model, box)
            return fit(build_pyramid(sample.image, cfg.levels), bundle, init, cfg)
        return fn

    def observe_against(truth):
        def observe(result):
            pts = result.shape.points
            return pts.tobytes(), fit_failure(pts, truth), pts
        return observe

    bench = Bench(tracer=None)
    box = truth_box(sample.shape, 0.10)
    good = bench.op("fit", "fit.asm_svm", fit_from(box), observe_against(sample.shape.points))
    assert good is not None and fit_failure(good, sample.shape.points) is None
    # The box lies wholly outside the image: fit raises InitializationError.
    assert bench.op("fit", "fit.asm_svm", fit_from((500.0, 500.0, 40.0, 40.0)),
                    observe_against(sample.shape.points)) is None
    # A finished fit scored against a truth 10 px away misses the 3 px bound.
    far = bench.op("fit", "fit.asm_svm", fit_from(box), observe_against(sample.shape.points + 10.0))
    assert far is not None
    assert bench.failures.total_attempted == 3
    assert bench.failures.total_failed == 2
    assert math.isclose(bench.failures.fail_frac(), 2 / 3)
    assert len(bench.times["fit.asm_svm"]) == 2
    assert any("InitializationError" in r for r in bench.failures.reasons)


# ------------------------------------------------------------ reference speed

def test_operation_time_is_scaled_by_kernel_samples():
    from workloads import REF_KERNEL_S, Bench

    bench = Bench(tracer=None)
    _, raw, scaled = bench._timed(lambda: time.sleep(1.2), None)
    # Kernel samples before, during (every 0.5 s) and after the operation.
    samples = bench.kernel_times
    assert len(samples) >= 4
    assert 1.1 < raw <= 1.3
    assert scaled == pytest.approx(raw * REF_KERNEL_S / (sum(samples) / len(samples)))
