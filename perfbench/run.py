"""Plinius end-to-end benchmark: ``train-mirror``, ``ckpt-cycle``, ``serve-open``.

Run from the repository root::

    python3 perfbench/run.py --workload ckpt-cycle --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` instead runs the workload twice in one process, untraced
and then traced, and reports the per-layer metrics on both clocks plus
the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it are a human-readable report and the host signature.  The exit
code is 1 when any output check failed.

End-to-end metrics, the same names on every workload (see
``workloads.py`` for what a step and an item are on each):

``setup_s``
    median wall seconds of building the deployment, over five builds.
``peak_rss_mb``
    peak resident memory of the process.
``work_per_s``
    items completed per wall second: training iterations, checkpoint
    cycles, or requests per second of gateway drain.
``step_ms_p50``, ``step_ms_p90``
    exact wall-time percentiles of one step.  A run takes at least
    enough steps to leave ten samples beyond the 90th percentile.

The report lines also give the per-workload figures by name
(``train_iters_per_s``, ``save_ms_p50``, ``restore_ms_p90``,
``serve_sim_p99_ms``, ...), the simulated-clock values, the load
generator's sealing cost and ``failed_ratio``.  Simulated numbers do
not depend on the host; they are checked, not timed: every deployment
built from one seed (five per untraced run, one untraced and one
traced per traced run) must produce identical simulated timings and
identical PM-image, parameter and sealed-response digests in its probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
#: numpy's BLAS runs single-threaded, like the default crypto pipeline
#: (``crypto_threads=1``): a second BLAS thread contending for the
#: host's other core made step times several times noisier.
BLAS_THREADS = "1"
#: The traced run spends at most this many of its ``--seconds`` traced
#: (spans and the program's own trace recorder grow with every call)
#: and the rest untraced; the two per-item wall times give
#: ``trace_overhead_pct``.
TRACED_MAX_S = 8.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def host_signature() -> dict:
    import cryptography
    import numpy

    from repro.crypto.backend import default_backend

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "aead_backend": default_backend().name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _build(workload, tally, recorder=None):
    gc.collect()
    t0 = time.perf_counter()
    dep = workload.setup(recorder)
    setup_s = time.perf_counter() - t0
    return dep, setup_s, workload.probe(dep, tally)


def _same(probes, tally, what: str) -> None:
    for probe in probes[1:]:
        tally.check(
            probe == probes[0],
            f"{what}: simulated numbers or digests differ between "
            "deployments built from one seed",
        )


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_untraced(workload, seconds: float):
    from stats import min_samples, quantile, reportable
    from workloads import Tally

    tally = Tally()
    setups, probes = [], []
    for _ in range(SETUP_REPS):
        dep = None  # let the previous deployment go before building
        dep, setup_s, probe = _build(workload, tally)
        setups.append(setup_s)
        probes.append(probe)
    _same(probes, tally, "setup probes")

    min_steps = min_samples(0.9)
    deadline = time.perf_counter() + seconds
    workload.run(dep, tally, deadline, min_steps)
    p90 = reportable(tally.step_s, 0.9)
    if p90 is None:
        raise SystemExit(f"only {len(tally.step_s)} steps; p90 not reportable")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "work_per_s": (tally.items / tally.busy_s, "1/s"),
        "step_ms_p50": (_ms(quantile(tally.step_s, 0.5)), "ms"),
        "step_ms_p90": (_ms(p90), "ms"),
    }
    return tally, metrics, setups


def named_report(name: str, tally) -> list:
    """The workload's own figures, by name, with units and sample counts."""
    from stats import highest_percentile, reportable

    rows = []

    def pct(template, samples, q, scale=1e3, unit="ms"):
        value = reportable(samples, q)
        rows.append((
            template.format(p=f"{q * 100:g}"),
            "n/a" if value is None else value * scale,
            unit,
            len(samples),
        ))

    def med(label, samples, scale=1e3, unit="ms"):
        rows.append((label, statistics.median(samples) * scale, unit,
                     len(samples)))

    rate = tally.items / tally.busy_s
    if name == "train-mirror":
        rows.append(("train_iters_per_s", rate, "1/s", tally.items))
        pct("train_iter_ms_p{p}", tally.step_s, 0.5)
        pct("train_iter_ms_p{p}", tally.step_s, 0.95)
        med("train_sim_ms_per_iter", tally.sim["iteration"])
    elif name == "ckpt-cycle":
        for phase in ("save", "restore"):
            pct(phase + "_ms_p{p}", tally.wall[phase], 0.5)
            pct(phase + "_ms_p{p}", tally.wall[phase], 0.9)
        med("save_sim_ms", tally.sim["save"])
        med("restore_sim_ms", tally.sim["restore"])
    else:
        rows.append(("serve_req_per_s", rate, "1/s", tally.items))
        latency = tally.sim["latency"]
        pct("serve_sim_p{p}_ms", latency, 0.5)
        pct("serve_sim_p{p}_ms", latency, 0.99)
        top = highest_percentile(latency)
        if top[0] > 0.99:
            pct("serve_sim_p{p}_ms", latency, top[0])
        seal = sum(tally.wall["loadgen_seal"])
        rows.append(("loadgen_seal_s", seal, "s", tally.items))
    rows.append(("failed_ratio", tally.failed / tally.attempted, "1",
                 tally.attempted))
    return rows


# ----------------------------------------------------------------------
# Traced run: per-layer metrics on both clocks
# ----------------------------------------------------------------------
def run_traced(workload, seconds: float):
    import layers
    from tracing import SIM_SPANS, WallTracer, sim_split
    from workloads import Tally

    from repro.obs.recorder import TraceRecorder

    checks = Tally()
    min_steps = 3

    traced_s = min(seconds / 2, TRACED_MAX_S)
    # Untraced part: the per-item wall time tracing is compared against.
    dep, _, probe_plain = _build(workload, checks)
    plain = Tally()
    workload.run(dep, plain, time.perf_counter() + seconds - traced_s,
                 min_steps)
    dep = None

    tracer = WallTracer()
    layers.install(tracer)
    try:
        recorder = TraceRecorder()
        dep, _, probe_traced = _build(workload, checks, recorder)
        _same([probe_plain, probe_traced], checks, "traced probe")
        first_span = len(recorder.spans)
        misses0 = recorder.counters.get("arena.miss")
        traced = Tally()
        workload.run(dep, traced, time.perf_counter() + traced_s, min_steps,
                     tracer)
    finally:
        tracer.unwrap_all()

    items = traced.items
    self_s = tracer.self_times(layers.classify)
    metrics = {}
    for key in layers.TIMED:
        metrics[f"{key}_ms"] = (_ms(self_s.get(key, 0.0)) / items, "ms")
    metrics["wall.unattributed_ms"] = (_ms(self_s.get("op", 0.0)) / items, "ms")
    counts = tracer.counts
    saves = counts.get("saves", 0)
    metrics["crypto.sealed_bytes"] = (counts.get("sealed_bytes", 0) / items,
                                      "B")
    metrics["sgx.hkdf_calls"] = (counts.get("hkdf_calls", 0) / items, "count")
    metrics["hw.pm.fences_per_save"] = (
        counts["save.fences"] / saves if saves else 0.0, "count")
    metrics["hw.pm.media_bytes_per_model_byte"] = (
        counts["save.media_bytes"] / counts["save.model_bytes"]
        if saves else 0.0, "ratio")
    metrics["darknet.arena_misses"] = (
        recorder.counters.get("arena.miss") - misses0, "count")
    metrics["serving.batch_size_mean"] = (
        statistics.fmean(traced.batch_sizes) if traced.batch_sizes else 0.0,
        "count")
    metrics["serving.queue_wait_sim_ms"] = (
        _ms(statistics.fmean(traced.queue_wait)) if traced.queue_wait
        else 0.0, "ms")
    split = sim_split(recorder, first_span, traced.sim_total)
    for name in SIM_SPANS + ("unattributed",):
        metrics[f"sim.{name}_pct"] = (
            100.0 * split[name] / traced.sim_total, "%")
    per_item_plain = plain.busy_s / plain.items
    per_item_traced = traced.busy_s / traced.items
    metrics["trace_overhead_pct"] = (
        100.0 * (per_item_traced / per_item_plain - 1.0), "%")

    checks.attempted += plain.attempted + traced.attempted
    checks.failed += plain.failed + traced.failed
    checks.failures += plain.failures + traced.failures
    return checks, metrics, split, traced


def layer_report(metrics, split, traced, item: str) -> list:
    lines = [f"per-layer, wall clock (self time per {item}):"]
    for name, (value, unit) in metrics.items():
        if not name.startswith("sim."):
            lines.append(f"  {name:<36} {value:>14.6f} {unit}")
    lines.append(
        f"per-layer, simulated clock (self seconds over "
        f"{traced.items} {item}s, total {traced.sim_total:.9f} s):"
    )
    for name, seconds in split.items():
        lines.append(f"  {name:<36} {seconds:>14.9f} s")
    return lines


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload, for the self-check only",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    host = host_signature()
    if host["aead_backend"] != "cryptography":
        print(f"error: AEAD backend is {host['aead_backend']!r}; "
              "the benchmark measures the 'cryptography' backend only",
              file=sys.stderr)
        return 2
    print("host " + json.dumps(host, sort_keys=True))

    workload = WORKLOADS[args.workload](args.seed, args.size)
    if args.trace:
        tally, metrics, split, traced = run_traced(
            workload, args.seconds)
        for line in layer_report(metrics, split, traced, workload.item):
            print(line)
    else:
        tally, metrics, setups = run_untraced(workload, args.seconds)
        print(f"{args.workload}: seed {args.seed}, "
              f"{tally.items} {workload.item}s, {len(tally.step_s)} steps, "
              "setups " + ", ".join(f"{s:.4f}" for s in setups) + " s")
        for name, value, unit, n in named_report(args.workload, tally):
            shown = value if isinstance(value, str) else f"{value:.6f}"
            print(f"  {name:<28} {shown:>16} {unit:<4} n={n}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
