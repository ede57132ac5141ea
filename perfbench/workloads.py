"""The benchmark's workloads and the closed loop that measures them.

Each workload is one process and one client: an operation starts only
after the previous one returned. Every fit starts from the ground-truth box
inflated by 10%, as ``asmfit eval`` does. Only asmfit's public API is
driven (training, dataset_io, imaging, search, cli); inputs come from
asmfit.synthetic and the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import asmfit
from asmfit import cli, dataset_io, evaluation, imaging, search, synthetic, training
from asmfit.scheme import DEFAULT_SCHEME

from metrics import (
    MAX_FIT_ERROR_PX,
    MIN_BEYOND,
    FailureCount,
    fit_failure,
    percentile,
    samples_beyond,
    supported_percentile,
)
from run import BLAS_VARS
from tracing import Tracer, layer_metrics

MODES = ("asm_svm", "classic")
BOX_INFLATE = 0.10
LOAD_REPEATS = 5
# In a traced run, fits of this many held-out faces per mode also run
# untraced, for the overhead and the byte-identity check; the rest run
# traced only.
PAIRED_FITS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    train_faces: int
    size: int
    heldout: int  # held-out faces, each fitted once per mode per pass
    train_repeats: int
    cli: bool


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # Fit-path layers dominate; the criterion-8 model (30 faces at 256x256).
    # 100 fits per mode leave 10 samples beyond p90; train_s is the median
    # of three trainings, which also check determinism.
    Workload("fit-256", train_faces=30, size=256, heldout=100, train_repeats=3, cli=False),
    # Training dominates: 240 faces exceed the 225 dimensions of the coarsest
    # 15x15 window, so its covariances are full rank; 128x128 keeps imaging
    # cheap. 92 fits per mode leave 10 samples beyond p90.
    Workload("train-240", train_faces=240, size=128, heldout=92, train_repeats=1, cli=False),
    # Every call decodes the bundle again. At ~0.37 s a call, 32 calls per
    # mode is what the driver's time budget leaves, so p90 rests on 4 samples.
    Workload("cli-oneshot", train_faces=30, size=256, heldout=32, train_repeats=2, cli=True),
)}

# End-to-end metrics: name -> unit. fail_frac is reported as ok_frac
# (1 - fail_frac) so that the metric is never 0. fits_per_s is fits over
# the summed latency of those fits, both modes together.
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "bundle_mb": "MB",
    "fit_ms_p50.asm_svm": "ms",
    "fit_ms_p90.asm_svm": "ms",
    "fit_ms_p50.classic": "ms",
    "fit_ms_p90.classic": "ms",
    "fits_per_s": "1/s",
    "e_ave_px.asm_svm": "px",
    "e_ave_px.classic": "px",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Time metrics whose traced-minus-untraced difference is the tracing overhead.
OVERHEAD_METRICS = ("setup_s", "train_s", "fit_ms_p50.asm_svm", "fit_ms_p90.asm_svm",
                    "fit_ms_p50.classic", "fit_ms_p90.classic", "fits_per_s")


# Reference speed. The host switches between speed states up to ~1.45x
# apart for seconds to minutes at a time, which moves whole runs. A fixed
# numpy/Python kernel that does not touch asmfit is therefore timed right
# before and after each operation and every KERNEL_INTERVAL_S during it,
# and the operation's time is reported scaled to a host on which the kernel
# takes REF_KERNEL_S: t * REF_KERNEL_S / mean(kernel samples). Kernel runs
# inside an operation are subtracted from its time; in a traced run they
# land in the self time of whichever span is open (about 0.5% of it). Raw
# wall times are printed and recorded beside the scaled ones.
REF_KERNEL_S = 2.5e-3
KERNEL_INTERVAL_S = 0.5
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.normal(size=(225, 225))
_REF_B = _REF_RNG.normal(size=(49, 225))
_REF_V = _REF_RNG.normal(size=16)


def reference_kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(8):
        d = _REF_B @ _REF_A
        acc += float(np.einsum("md,md->m", d, _REF_B).sum())
        for _ in range(30):
            acc += float(np.clip(_REF_V, -1.0, 1.0).sum())
    return perf_counter() - t0


class KernelSampler:
    """Times the reference kernel from a SIGALRM handler while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_kernel_seconds())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_INTERVAL_S, KERNEL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Bench:
    """Runs operations, times them, counts failures and, when tracing,
    repeats each one under the span wrappers and compares the outputs."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.failures = FailureCount()
        self.times = defaultdict(list)  # at reference speed
        self.raw_times = defaultdict(list)  # wall time as measured
        self.kernel_times: list[float] = []
        # Traced executions that have an untraced twin; the overhead compares
        # these with self.times.
        self.traced_times = defaultdict(list)
        self.problems: list[str] = []

    def _timed(self, fn, traced_kind):
        """(result, wall seconds, seconds at reference speed) of one call."""
        before = reference_kernel_seconds()
        scope = self.tracer.operation(traced_kind) if traced_kind else contextlib.nullcontext()
        with scope, KernelSampler() as sampler:
            t0 = perf_counter()
            result = fn()
            dt = perf_counter() - t0 - sampler.spent
        samples = [before, *sampler.samples, reference_kernel_seconds()]
        kernel = sum(samples) / len(samples)
        self.kernel_times.extend(samples)
        return result, dt, dt * REF_KERNEL_S / kernel

    def op(self, kind, key, fn, observe, pair=True):
        """Run one operation; observe(result) gives (fingerprint, failure reason, payload).

        Untraced, fn runs once. Traced, it runs untraced and then under the
        wrappers when pair is set, else only under the wrappers. Only fn is
        timed. Returns the payload of the first execution, or None when
        that raised.
        """
        if self.tracer is None:
            runs = (None,)
        else:
            runs = (None, kind) if pair else (kind,)
        payload = ref = None
        for i, traced_kind in enumerate(runs):
            try:
                result, raw, dt = self._timed(fn, traced_kind)
            except Exception as exc:  # a failing operation is counted, not fatal
                if i == 0:
                    self.failures.record(kind, f"{type(exc).__name__}: {exc}")
                    return None
                self.problems.append(f"traced {key} raised {type(exc).__name__}: {exc}")
                return payload
            if traced_kind is None:
                self.times[key].append(dt)
                self.raw_times[key].append(raw)
            elif pair:
                self.traced_times[key].append(dt)
            fingerprint, reason, out = observe(result)
            if i == 0:
                self.failures.record(kind, reason)
                ref, payload = fingerprint, out
            elif fingerprint != ref:
                self.problems.append(f"traced {key} output differs from the untraced one")
        return payload


def _latency_metrics(times: dict) -> dict:
    out = {}
    if times["load"]:
        out["setup_s"] = statistics.median(times["load"])
    if times["train"]:
        out["train_s"] = statistics.median(times["train"])
    fit_keys = [f"fit.{m}" for m in MODES]
    for mode in MODES:
        ms = [t * 1e3 for t in times[f"fit.{mode}"]]
        if ms:
            out[f"fit_ms_p50.{mode}"] = percentile(ms, 50)
            out[f"fit_ms_p90.{mode}"] = percentile(ms, 90)
    busy = sum(sum(times[k]) for k in fit_keys)
    if busy:
        out["fits_per_s"] = sum(len(times[k]) for k in fit_keys) / busy
    return out


def environment(workload: Workload, seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": workload.name,
        "seed": seed,
    }


def _run_fit_phase(bench, wl, bundle, bundle_path, test, seconds, workdir):
    """Fit every held-out face in both modes, in whole passes, until `seconds`
    have passed. Returns the first pass's points and the number of passes."""
    boxes = [cli.truth_box(s.shape, BOX_INFLATE) for s in test]
    first_pass = {mode: {} for mode in MODES}
    if wl.cli:
        for i, sample in enumerate(test):
            dataset_io.save_pgm(sample.image, workdir / f"face_{i:03d}.pgm")
    else:
        configs = {mode: search.config_for_mode(bundle, mode) for mode in MODES}

    def in_process(mode, i, sample, box):
        cfg = configs[mode]

        def fn():
            pyramid = imaging.build_pyramid(sample.image, cfg.levels)
            init = search.init_shape_from_box(bundle.shape_model, box)
            return search.fit(pyramid, bundle, init, cfg)

        def observe(result):
            points = result.shape.points
            return points.tobytes(), fit_failure(points, sample.shape.points), points

        return fn, observe

    def one_shot(mode, i, sample, box):
        pts, ppm = workdir / "fit.pts", workdir / "fit.ppm"
        argv = ["fit", "--model", str(bundle_path), "--image", str(workdir / f"face_{i:03d}.pgm"),
                "--box=" + ",".join(repr(float(v)) for v in box), "--out", str(pts),
                "--overlay", str(ppm), "--mode", mode]

        def fn():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"asmfit fit exited with status {rc}")

        def observe(_):
            points = dataset_io.load_points_file(pts).points
            return pts.read_bytes() + ppm.read_bytes(), fit_failure(points, sample.shape.points), points

        return fn, observe

    make_op = one_shot if wl.cli else in_process
    t_start = perf_counter()
    passes = 0
    while True:
        for i, (sample, box) in enumerate(zip(test, boxes)):
            for mode in MODES:
                fn, observe = make_op(mode, i, sample, box)
                pair = passes == 0 and i < PAIRED_FITS
                points = bench.op("fit", f"fit.{mode}", fn, observe, pair)
                if points is None:
                    continue
                if not np.all(np.isfinite(points)):
                    bench.problems.append(f"{mode} fit of face {i} has non-finite points")
                if not np.array_equal(first_pass[mode].setdefault(i, points), points):
                    bench.problems.append(f"repeated {mode} fit of face {i} is not byte-identical")
        passes += 1
        if perf_counter() - t_start >= seconds:
            return first_pass, passes


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    wl = WORKLOADS[name]
    if not Path(asmfit.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"asmfit imported from {asmfit.__file__}, not from {root / 'src'}")
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wl, seed, seconds, trace, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, out_dir, workdir) -> int:
    tracer = Tracer() if trace else None
    bench = Bench(tracer)

    samples = synthetic.generate_face_dataset(wl.train_faces + wl.heldout, size=wl.size, seed=seed)
    train, test = dataset_io.split_dataset(samples, wl.train_faces, seed=seed)

    bundle_path = workdir / "model.asmb"

    def train_and_save():
        bundle, _ = training.train_bundle(train, DEFAULT_SCHEME, seed=seed)
        dataset_io.save_bundle(bundle, bundle_path)

    def observe_bundle(_):
        data = bundle_path.read_bytes()
        return hashlib.sha256(data).hexdigest(), None, data

    digests = set()
    bundle_bytes = b""
    for repeat in range(wl.train_repeats):
        data = bench.op("train", "train", train_and_save, observe_bundle, pair=repeat == 0)
        if data is not None:
            bundle_bytes = data
            digests.add(hashlib.sha256(data).hexdigest())
    if len(digests) > 1:
        bench.problems.append(f"same-seed trainings gave {len(digests)} different bundles")

    bundle = None
    for _ in range(LOAD_REPEATS):
        loaded = bench.op("load", "load", lambda: dataset_io.load_bundle(bundle_path),
                          lambda b: (None, None, b))
        bundle = bundle or loaded
    if bundle is None:
        bench.problems.append("no bundle could be trained and loaded")
        first_pass, passes = {m: {} for m in MODES}, 0
    else:
        first_pass, passes = _run_fit_phase(bench, wl, bundle, bundle_path, test, seconds, workdir)

    e_ave = {}
    for mode in MODES:
        idx = sorted(first_pass[mode])
        if idx:
            e_ave[mode] = evaluation.evaluate(
                [asmfit.Shape(first_pass[mode][i]) for i in idx],
                [test[i].shape for i in idx], scheme=DEFAULT_SCHEME, method=mode,
            ).e_ave
    if "asm_svm" in e_ave and e_ave["asm_svm"] > MAX_FIT_ERROR_PX:
        bench.problems.append(f"asm_svm E_ave {e_ave['asm_svm']:.4f} px > {MAX_FIT_ERROR_PX} px")
    if wl.name == "fit-256" and len(e_ave) == 2 and e_ave["asm_svm"] > e_ave["classic"]:
        bench.problems.append(
            f"asm_svm E_ave {e_ave['asm_svm']:.4f} px exceeds classic {e_ave['classic']:.4f} px")

    e2e = _latency_metrics(bench.times)
    if bundle_bytes:
        e2e["bundle_mb"] = len(bundle_bytes) / 1e6
    for mode, value in e_ave.items():
        e2e[f"e_ave_px.{mode}"] = value
    e2e["ok_frac"] = 1.0 - bench.failures.fail_frac()
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = [m for m in E2E_UNITS if m not in e2e]
    if missing:
        bench.problems.append(f"no value for {', '.join(missing)}")

    counts = {"train": len(bench.times["train"]), "load": len(bench.times["load"]),
              **{f"fit.{m}": len(bench.times[f"fit.{m}"]) for m in MODES},
              "e_ave_images": {m: len(first_pass[m]) for m in MODES}, "fit_passes": passes}
    record = {
        "workload": asdict(wl),
        "trace": bool(tracer),
        "environment": environment(wl, seed),
        "sample_counts": counts,
        "bundle_sha256": sorted(digests),
        "failures": bench.failures.base(),
        "failure_reasons": bench.failures.reasons[:20],
        "problems": bench.problems,
        "end_to_end": {k: {"value": e2e.get(k), "unit": u} for k, u in E2E_UNITS.items()},
        "raw_wall_times": _latency_metrics(bench.raw_times),
        "reference_kernel_ms": {"median": statistics.median(bench.kernel_times) * 1e3,
                                "samples": len(bench.kernel_times),
                                "reference": REF_KERNEL_S * 1e3},
    }

    print(f"perfbench {wl.name} seed={seed} trace={int(bool(tracer))}")
    print("environment: " + json.dumps(record["environment"]))
    if tracer is not None:
        print("end-to-end values below come from the untraced executions")
    _print_e2e(e2e, _latency_metrics(bench.raw_times), bench.times)
    print(f"reference kernel: median {statistics.median(bench.kernel_times) * 1e3:.4f} ms "
          f"over {len(bench.kernel_times)} samples, reference {REF_KERNEL_S * 1e3:.4f} ms")
    print(f"bundle sha256: {', '.join(sorted(digests)) or '-'}")
    print(f"operations: {bench.failures.base()}")
    for reason in bench.failures.reasons[:5]:
        print(f"  failed {reason}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")

    if tracer is None:
        result_metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items() if k in e2e}
    else:
        traced = _latency_metrics(bench.traced_times)
        overhead = {f"overhead.{k}": (traced[k] - e2e[k], E2E_UNITS[k])
                    for k in OVERHEAD_METRICS if k in traced and k in e2e}
        layers = layer_metrics(tracer.span_table(), tracer.counters)
        layers.update(overhead)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["per_layer"] = result_metrics
        spans_path = out_dir / f"{wl.name}-seed{seed}-spans.npz"
        tracer.save(spans_path)
        print(f"spans: {len(tracer)} written to {spans_path}")
        for key, (value, unit) in layers.items():
            print(f"  {key:32s} {value:14.6f} {unit}")

    correct = not bench.problems and len(result_metrics) > 0
    record["correct"] = correct
    (out_dir / f"{wl.name}-seed{seed}-trace{int(bool(tracer))}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.failures.total_attempted,
        "failed": bench.failures.total_failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def _print_e2e(e2e: dict, raw: dict, times: dict) -> None:
    samples = {"setup_s": len(times["load"]), "train_s": len(times["train"])}
    for mode in MODES:
        n = len(times[f"fit.{mode}"])
        samples[f"fit_ms_p50.{mode}"] = n
        samples[f"fit_ms_p90.{mode}"] = n
    samples["fits_per_s"] = sum(len(times[f"fit.{m}"]) for m in MODES)
    print(f"{'metric':22s} {'value':>14s} {'raw wall':>14s} {'unit':6s} samples")
    for key, unit in E2E_UNITS.items():
        value = e2e.get(key)
        text = f"{value:14.6f}" if value is not None else f"{'-':>14s}"
        text += f" {raw[key]:14.6f}" if key in raw else f" {'':14s}"
        note = ""
        if key in samples:
            note = str(samples[key])
            if "_p90" in key:
                beyond = samples_beyond(samples[key], 90)
                supported = supported_percentile(samples[key], 90)
                note += f" ({beyond} beyond p90{'' if supported else f', under {MIN_BEYOND}'})"
        print(f"{key:22s} {text} {unit:6s} {note}")
