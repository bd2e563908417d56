"""Drift-corrected wall-clock serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload long_decode --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice more, untraced and traced, and prints the per-layer
metrics.  Human-readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  An output mismatch (served != solo ``generate``, or a
digest that differs from an earlier run of the same inputs) exits 1.
See NOTES.md for the workloads, the metrics and the clock correction.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded, from one process: a second BLAS thread would
# run while the probe runs and skew the correction (NOTES.md).  Set before
# numpy is imported anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import reducers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_PROBE_S, Probe  # noqa: E402
from repro.obs import Tracer  # noqa: E402

OUT = HERE / "out"
SETUPS = 3


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed blocks instead of unmapping them.

    Prefill allocates and frees many-megabyte score temporaries every
    chunk.  By default each one is a fresh mmap whose pages are faulted
    in again (600k minor faults and over 1 s of system time per
    ``long_prompt`` run), and page-fault cost on a VM varies with the
    host.  Reusing heap memory removes that noise.  Like the BLAS thread
    count, this is the benchmark process's setting, the same for every
    commit measured.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 1 << 30)
                and libc.mallopt(m_trim_threshold, 1 << 30))

#: End-to-end metric -> unit (all timings on the corrected clock).
E2E_UNITS = {
    "setup_s": "s", "ttft_p50_s": "s", "itl_p50_s": "s", "itl_p99_s": "s",
    "output_tok_s": "1/s", "prompt_tok_s": "1/s", "peak_rss_mib": "MiB",
    "slo_attain_frac": "frac",
}
LAYER_UNITS = {
    "core.attention.prefill_busy_s": "s",
    "core.attention.decode_busy_s": "s",
    "core.attention.filter_pass_frac": "frac",
    "core.attention.kv_bytes_read": "B",
    "llm.prefill.busy_s": "s", "llm.prefill.tokens": "count",
    "llm.decode.busy_s": "s", "llm.decode.tokens": "count",
    "serve.paged_kv.gather_busy_s": "s",
    "serve.paged_kv.gather_bytes": "B",
    "serve.paged_kv.append_busy_s": "s",
    "serve.paged_kv.blocks_peak_frac": "frac",
    "serve.paged_kv.prefix_hit_frac": "frac",
    "serve.paged_kv.prefix_tokens_reused_frac": "frac",
    "serve.scheduler.queue_wait_p50_s": "s",
    "serve.scheduler.decode_batch_mean": "count",
    "serve.scheduler.busy_s": "s",
    "serve.scheduler.preemptions": "count",
    "serve.engine.steps": "count", "serve.engine.step_p50_s": "s",
    "serve.engine.self_s": "s",
    "durable.wal.append_busy_s": "s", "durable.wal.records": "count",
    "durable.wal.sync_busy_s": "s", "durable.wal.syncs": "count",
    "durable.snapshot.busy_s": "s", "durable.snapshot.bytes": "B",
    "fleet.router.self_s": "s", "fleet.dispatched": "count",
    "fleet.worker_suspects": "count", "fleet.failovers": "count",
    "fleet.worker_token_imbalance": "frac",
    "host.probe_ms_p50": "ms", "host.probe_ms_iqr": "ms",
    "host.raw_wall_s": "s", "host.cpu_per_wall": "frac",
    "trace.overhead_frac": "frac", "trace.step_coverage_frac": "frac",
}


class MeasuredRun:
    """One serving run of a workload: set up, then serve and reduce."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.served = workloads.set_up(workload, OUT / "tmp")
        self.requests = workloads.make_requests(workload, seed, seconds)

    def serve(self, probe) -> None:
        self.log = workloads.StepLog(probe)
        try:
            workloads.serve(self.workload, self.served, self.requests,
                            self.log)
        finally:
            self.served.close()
        corrected = reducers.corrected_durations(
            self.log.durations, self.log.probes, REFERENCE_PROBE_S)
        self.outcome = workloads.reduce_run(self.workload, self.log,
                                            corrected)
        self.raw = workloads.reduce_run(self.workload, self.log,
                                        self.log.durations)


def timed_setups(workload, probe) -> tuple:
    """Set up ``SETUPS`` times; (corrected, raw) seconds of each."""
    times, raw = [], []
    for _ in range(SETUPS):
        before = probe()
        t0 = time.perf_counter()
        served = workloads.set_up(workload, OUT / "tmp")
        elapsed = time.perf_counter() - t0
        after = probe()
        served.close()
        raw.append(elapsed)
        times.extend(reducers.corrected_durations([elapsed], [before, after],
                                                  REFERENCE_PROBE_S))
    return times, raw


def e2e_metrics(outcome, setups) -> dict:
    """End-to-end metrics of one run with their sample counts."""
    tail_q, tail_v = reducers.tail(outcome.gaps)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ttft_p50_s": (statistics.median(outcome.ttfts), len(outcome.ttfts)),
        "itl_p50_s": (statistics.median(outcome.gaps), len(outcome.gaps)),
        "itl_p99_s": (tail_v, len(outcome.gaps), tail_q),
        "output_tok_s": (outcome.output_tokens / outcome.serving_s,
                         outcome.output_tokens),
        "prompt_tok_s": (outcome.prompt_tokens / outcome.serving_s,
                         outcome.prompt_tokens),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, 1),
        "slo_attain_frac": (outcome.slo_attain, outcome.attempted),
    }


def check(run: MeasuredRun) -> list:
    """Served == solo on the checked requests; digest == earlier runs'.

    Earlier runs' digests are kept in the checkout, keyed by the workload
    and a hash of its inputs, so every later run on the same inputs must
    serve the same tokens on the same workers.
    """
    problems = workloads.check_outputs(run.workload, run.served.model,
                                       run.requests)
    inputs = reducers.output_digest(
        (r.request_id, 0, r.prompt) for r in run.requests)
    key = f"{run.workload.name}:{inputs[:16]}"
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = run.outcome.digest
    if known.setdefault(key, digest) != digest:
        problems.append(f"digest {digest[:12]} differs from the earlier "
                        f"run's {known[key][:12]} for {key}")
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return problems


def host_metadata(probe, malloc_keeps_freed: bool) -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "malloc_keeps_freed": malloc_keeps_freed,
            "numpy": np.__version__,
            "reference_probe_ms": REFERENCE_PROBE_S * 1e3,
            "probe_ms_now": probe() * 1e3}


def traced_metrics(workload, seed, seconds, probe) -> tuple:
    """Untraced then traced run; per-layer metrics of the traced one."""
    base = MeasuredRun(workload, seed, seconds)
    base.serve(probe)
    run = MeasuredRun(workload, seed, seconds)
    tracer = Tracer()

    def traced_probe() -> float:
        with tracer.span("probe"):
            return probe()

    before = tracing.attention_counters()
    with tracing.instrumented(tracer):
        run.serve(traced_probe)
    after = tracing.attention_counters()
    scale = REFERENCE_PROBE_S / statistics.median(run.log.probes)
    counters = {k: after[k] - before[k] for k in after}
    index = tracing.SpanIndex(tracer)
    metrics = tracing.layer_metrics(
        index, counters, scale, workloads.MODEL.head_dim,
        np.dtype(workloads.MODEL.kv_dtype).itemsize)
    outcome = run.outcome
    attached = index.arg_total("PagedKVCache.attach_prefix", "attached")
    pools = run.served.pools
    report = run.served.report
    tokens = [w.tokens_generated for w in report.workers] if report else []
    metrics.update({
        "serve.paged_kv.blocks_peak_frac":
            max(p.high_watermark / p.n_blocks for p in pools),
        "serve.paged_kv.prefix_tokens_reused_frac":
            attached / outcome.prompt_tokens,
        "serve.scheduler.queue_wait_p50_s":
            statistics.median(outcome.queue_waits),
        "serve.scheduler.preemptions":
            sum(r.events.preemptions for r in run.requests),
        "fleet.dispatched": run.served.router.obs.metrics.counter(
            "fleet.dispatched").value if run.served.router else 0,
        "fleet.worker_suspects": report.worker_suspects if report else 0,
        "fleet.failovers": report.failovers if report else 0,
        "fleet.worker_token_imbalance":
            (max(tokens) - min(tokens)) / statistics.fmean(tokens)
            if tokens else 0.0,
        "host.probe_ms_p50": statistics.median(base.log.probes) * 1e3,
        "host.probe_ms_iqr": reducers.iqr(base.log.probes) * 1e3,
        "host.raw_wall_s": base.log.wall_s,
        "host.cpu_per_wall": base.outcome.cpu_per_wall,
        "trace.overhead_frac":
            run.outcome.serving_s / base.outcome.serving_s - 1.0,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    path = tracer.write_chrome_trace(
        OUT / f"trace-{workload.name}-{seed}.json")
    print(f"chrome trace: {path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans)")
    if base.outcome.digest != outcome.digest:
        raise SystemExit("traced run served different tokens than the "
                         "untraced run")
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    malloc_keeps_freed = keep_freed_memory()
    probe = Probe()
    for _ in range(3):
        probe()
    print(f"host: {json.dumps(host_metadata(probe, malloc_keeps_freed))}")

    if args.trace:
        values, run = traced_metrics(workload, args.seed, args.seconds,
                                     probe)
        units = LAYER_UNITS
    else:
        setups, raw_setups = timed_setups(workload, probe)
        run = MeasuredRun(workload, args.seed, args.seconds)
        run.serve(probe)
        measured = e2e_metrics(run.outcome, setups)
        raw = e2e_metrics(run.raw, raw_setups)
        values = {name: m[0] for name, m in measured.items()}
        units = E2E_UNITS
        for name, m in measured.items():
            extra = f" at p{m[2]:.4g}" if len(m) > 2 else ""
            print(f"{name}: {m[0]:.6g} {units[name]} (n={m[1]}{extra}; "
                  f"raw wall {raw[name][0]:.6g})")
        print("raw: " + json.dumps({name: m[0] for name, m in raw.items()}))
    problems = check(run)
    outcome = run.outcome
    print(f"requests: attempted={outcome.attempted} "
          f"succeeded={outcome.attempted - outcome.failed} "
          f"failed={outcome.failed} failed_frac="
          f"{reducers.failed_frac(outcome.attempted, outcome.failed):.4g}")
    print(f"digest: {outcome.digest}")
    for problem in problems:
        print(f"MISMATCH: {problem}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
