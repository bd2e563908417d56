"""The benchmark's workloads, driven through the public serving API.

Every workload is closed-loop or a burst dispatched at t=0, so admission
order, batch composition and fleet placement depend only on the seed and
on step order, never on measured time (see NOTES.md).  Each engine step
is timed on the wall clock and followed, outside the timed region, by one
:class:`~probe.Probe`; :func:`reducers.corrected_durations` turns the raw
step times into reference-host seconds.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import LongSightConfig
from repro.core.hybrid import LongSightAttention
from repro.durable import DurableRun
from repro.fleet import FleetRouter, HealthPolicy, make_worker
from repro.llm.config import ModelConfig
from repro.llm.model import Transformer
from repro.llm.sampling import generate
from repro.obs import MetricsRegistry, Obs, Tracer
from repro.serve import RequestState, ServeEngine, ServeRequest, SloPolicy
from repro.serve.paged_kv import PagedKVPool

import reducers

#: "numpy outweighs python" size: 4 layers, 8/2 heads, head_dim 64.
MODEL = ModelConfig(name="perfbench", vocab_size=512, n_layers=4,
                    n_q_heads=8, n_kv_heads=2, head_dim=64, d_ff=512,
                    qk_bias=True)
#: Threshold 36 of 64 sign bits passes ~20% of the sparse candidates.
ATTENTION = LongSightConfig(window=256, n_sink=16, top_k=128, thresholds=36)
BLOCK_TOKENS = 16
PREFILL_CHUNK = 256
#: Slowest warm-up step x this = the fleet's health-deadline floor.
DEADLINE_FLOOR_FACTOR = 30.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``requests_per_s`` is the request count per second of reference-host
    time, calibrated so a run's corrected serving time is close to
    ``--seconds``; the count is a pure function of ``--seconds``, so the
    same seed and length always serve the same requests.
    """

    name: str
    clients: int                 # closed-loop clients; 0 = burst at t=0
    prompt_tokens: tuple         # (low, high) inclusive
    output_tokens: int
    requests_per_s: float
    min_requests: int
    max_decode_batch: int
    ttft_limit_s: float
    gap_limit_s: float
    checked: tuple               # request ids checked against solo generate
    tenants: int = 0             # >0: shared-prefix fleet tenants
    shared_prefix: int = 0
    workers: int = 1
    pool_blocks: int = 0         # per worker

    def n_requests(self, seconds: float) -> int:
        return max(self.min_requests, round(self.requests_per_s * seconds))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("long_prompt", clients=2, prompt_tokens=(1536, 2048),
             output_tokens=4, requests_per_s=0.35, min_requests=2,
             max_decode_batch=8, ttft_limit_s=12.0, gap_limit_s=1.0,
             checked=(0,), pool_blocks=2 * 2048 // BLOCK_TOKENS + 16),
    Workload("long_decode", clients=8, prompt_tokens=(480, 544),
             output_tokens=160, requests_per_s=0.4, min_requests=8,
             max_decode_batch=8, ttft_limit_s=8.0, gap_limit_s=0.75,
             checked=(0,), pool_blocks=8 * 720 // BLOCK_TOKENS),
    Workload("shared_prefix_fleet", clients=0, prompt_tokens=(16, 64),
             output_tokens=16, requests_per_s=3.0, min_requests=8,
             max_decode_batch=6, ttft_limit_s=12.0, gap_limit_s=6.0,
             checked=(2, 3), tenants=2, shared_prefix=768, workers=2,
             pool_blocks=360),
)}


# -- inputs -------------------------------------------------------------------

def make_requests(workload: Workload, seed: int,
                  seconds: float) -> List[ServeRequest]:
    """The run's requests, a pure function of (workload, seed, seconds).

    The seed draws the token ids.  Prompt lengths depend on the request
    index alone, spread over the workload's range, so every seed asks for
    the same amount of work and run-to-run spread measures the host and
    the program rather than the draw of lengths.
    """
    rng = np.random.default_rng([seed, len(workload.name)])
    n = workload.n_requests(seconds)
    low, high = workload.prompt_tokens
    prefixes = [rng.integers(0, MODEL.vocab_size, workload.shared_prefix)
                for _ in range(workload.tenants)]
    requests = []
    for rid in range(n):
        length = low + (rid * 7919) % (high - low + 1)
        body = rng.integers(0, MODEL.vocab_size, length)
        tenant = "default"
        if workload.tenants:
            tenant = f"tenant{rid % workload.tenants}"
            body = np.concatenate([prefixes[rid % workload.tenants], body])
        requests.append(ServeRequest(request_id=rid, prompt=body,
                                     max_new_tokens=workload.output_tokens,
                                     tenant=tenant))
    return requests


def backend_factory(request: ServeRequest) -> LongSightAttention:
    return LongSightAttention(ATTENTION)


def policy_for(workload: Workload) -> SloPolicy:
    return SloPolicy(max_decode_batch=workload.max_decode_batch,
                     prefill_chunk=PREFILL_CHUNK)


# -- step log -----------------------------------------------------------------

@dataclasses.dataclass
class Track:
    """What the benchmark observed of one request, in step indices."""

    request: ServeRequest
    arrival_step: int = -1       # request sent after this step (-1: t=0)
    admitted_step: Optional[int] = None
    token_steps: List[int] = dataclasses.field(default_factory=list)
    lane: Optional[int] = None   # worker that emitted its tokens
    client: int = -1             # closed-loop client that sent it


class StepLog:
    """Raw step times, bracketing probes and per-request emissions."""

    def __init__(self, probe: Callable[[], float]) -> None:
        self.probe = probe
        self.lanes: List[int] = []
        self.durations: List[float] = []
        self.probes: List[float] = [probe()]
        self.tracks: Dict[int, Track] = {}
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def add(self, track: Track) -> None:
        self.tracks[track.request.request_id] = track

    def timed_step(self, lane: int, step: Callable[[], bool],
                   watch: Sequence[Track]) -> bool:
        """Time one engine step, then probe and record emissions."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        alive = step()
        duration = time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        self.wall_s += duration
        index = len(self.durations)
        self.lanes.append(lane)
        self.durations.append(duration)
        for track in watch:
            request = track.request
            while len(track.token_steps) < len(request.outputs):
                track.token_steps.append(index)
                track.lane = lane
            if track.admitted_step is None \
                    and request.events.admitted_s is not None:
                track.admitted_step = index
        self.probes.append(self.probe())
        return alive

    @property
    def last_step(self) -> int:
        return len(self.durations) - 1


# -- set-up ---------------------------------------------------------------------

def warm_up(model: Transformer) -> float:
    """Serve two one-chunk requests on a throwaway pool; returns the
    slowest step's wall time.

    The first ``decode_step_batch`` builds the model's ``SignScratch``
    lazily; doing it here keeps that set-up inside ``setup_s`` instead of
    the first measured TTFT.
    """
    rng = np.random.default_rng(0)
    pool = PagedKVPool(MODEL, 2 * (PREFILL_CHUNK + 16) // BLOCK_TOKENS,
                       BLOCK_TOKENS, prefix_caching=True)
    engine = ServeEngine(model, pool, backend_factory,
                         policy=SloPolicy(max_decode_batch=2,
                                          prefill_chunk=PREFILL_CHUNK),
                         timing=None, name="warmup")
    run = engine.start([ServeRequest(i, rng.integers(0, MODEL.vocab_size,
                                                      PREFILL_CHUNK),
                                     max_new_tokens=4) for i in range(2)])
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        alive = run.step()
        slowest = max(slowest, time.perf_counter() - t0)
        if not alive:
            return slowest


@dataclasses.dataclass
class Served:
    """A set-up: the model and whatever serves it."""

    model: Transformer
    engine: Optional[ServeEngine] = None
    router: Optional[FleetRouter] = None
    workers: list = dataclasses.field(default_factory=list)
    durable_root: Optional[pathlib.Path] = None
    report: object = None        # FleetReport of the fleet run

    def close(self) -> None:
        for worker in self.workers:
            wal = getattr(worker.run, "wal", None)
            if wal is not None:
                wal.close()
        if self.durable_root is not None:
            shutil.rmtree(self.durable_root, ignore_errors=True)

    @property
    def pools(self) -> List[PagedKVPool]:
        if self.engine is not None:
            return [self.engine.pool]
        return [w.pool for w in self.workers]


def set_up(workload: Workload, work_dir: pathlib.Path) -> Served:
    """Build the model and the serving stack, then warm it up."""
    model = Transformer(MODEL, seed=0)
    slowest = warm_up(model)
    if workload.workers == 1:
        pool = PagedKVPool(MODEL, workload.pool_blocks, BLOCK_TOKENS,
                           prefix_caching=True)
        engine = ServeEngine(model, pool, backend_factory,
                             policy=policy_for(workload), timing=None,
                             name=workload.name,
                             prefill_block_size=PREFILL_CHUNK)
        return Served(model, engine=engine)
    work_dir.mkdir(parents=True, exist_ok=True)
    root = pathlib.Path(tempfile.mkdtemp(prefix="durable-", dir=work_dir))
    workers = [make_worker(i, model, backend_factory, workload.pool_blocks,
                           BLOCK_TOKENS, policy=policy_for(workload),
                           prefill_block_size=PREFILL_CHUNK,
                           durable_root=root)
               for i in range(workload.workers)]
    # Known defect: the default 0.25 s deadline floor is below one
    # 256-token prefill chunk at this model size, so a fault-free fleet
    # fails its workers over.  Size the floor from the measured warm-up
    # step, as an operator of this model size would (NOTES.md).
    health = HealthPolicy(deadline_floor_s=DEADLINE_FLOOR_FACTOR * slowest)
    router = FleetRouter(workers, health=health,
                         obs=Obs(MetricsRegistry(enabled=True),
                                 Tracer(enabled=False)))
    return Served(model, router=router, workers=workers, durable_root=root)


# -- serving loops ----------------------------------------------------------------

def serve_closed_loop(workload: Workload, served: Served,
                      requests: List[ServeRequest], log: StepLog) -> None:
    """``clients`` closed-loop clients over one engine.

    Client ``c`` owns requests ``c, c + clients, ...`` and sends the next
    one in the step after its previous one finished.
    """
    queues = [list(requests[c::workload.clients])
              for c in range(workload.clients)]
    run = served.engine.start([])
    live: List[Track] = []

    def send(client: int, after_step: int) -> None:
        if not queues[client]:
            return
        request = queues[client].pop(0)
        request.arrival_s = run.clock
        request.events.arrival_s = run.clock
        track = Track(request, arrival_step=after_step, client=client)
        log.add(track)
        live.append(track)
        run.inject(request)

    for client in range(workload.clients):
        send(client, -1)
    while live:
        log.timed_step(0, run.step, live)
        for track in [t for t in live if t.request.done]:
            live.remove(track)
            send(track.client, log.last_step)
    run.finish()


def serve_fleet(workload: Workload, served: Served,
                requests: List[ServeRequest], log: StepLog) -> None:
    """The whole request set dispatched to the fleet at t=0.

    The router steps its workers itself, so each worker step is timed by
    wrapping ``DurableRun.step`` for the length of the run.
    """
    tracks = [Track(r) for r in requests]
    for track in tracks:
        log.add(track)
    lane_of = {id(w.engine): w.worker_id for w in served.workers}
    inner = DurableRun.step

    def step(run):
        return log.timed_step(lane_of[id(run.engine)],
                              lambda: inner(run), tracks)

    DurableRun.step = step
    try:
        report = served.router.run(requests)
    finally:
        DurableRun.step = inner
    served.report = report


def serve(workload: Workload, served: Served,
          requests: List[ServeRequest], log: StepLog) -> None:
    if workload.workers == 1:
        serve_closed_loop(workload, served, requests, log)
    else:
        serve_fleet(workload, served, requests, log)


# -- reduction -------------------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    """End-to-end view of one measured run, on the corrected clock."""

    ttfts: List[float]
    gaps: List[float]
    queue_waits: List[float]
    output_tokens: int
    prompt_tokens: int
    serving_s: float
    attempted: int
    failed: int
    slo_attain: float
    digest: str
    cpu_per_wall: float


def reduce_run(workload: Workload, log: StepLog,
               durations: Sequence[float]) -> Outcome:
    """Reduce a run whose step ``durations`` are corrected (or raw)."""
    ends = reducers.lane_clocks(log.lanes, durations)

    def end_of(step: int) -> float:
        return 0.0 if step < 0 else ends[step]

    ttfts, gaps, waits, outcomes, served_rows = [], [], [], [], []
    failed = output_tokens = prompt_tokens = 0
    for rid, track in sorted(log.tracks.items()):
        request = track.request
        ok = request.state is RequestState.DONE \
            and len(request.outputs) == request.max_new_tokens
        if not ok:
            failed += 1
            outcomes.append((False, None, ()))
            continue
        arrival = end_of(track.arrival_step)
        times = [end_of(s) for s in track.token_steps]
        ttft = times[0] - arrival
        own_gaps = [b - a for a, b in zip(times, times[1:])]
        ttfts.append(ttft)
        gaps.extend(own_gaps)
        if track.admitted_step is not None:
            start = ends[track.admitted_step] \
                - durations[track.admitted_step]
            waits.append(max(0.0, start - arrival))
        outcomes.append((True, ttft, own_gaps))
        output_tokens += len(request.outputs)
        prompt_tokens += len(request.prompt)
        served_rows.append((rid, track.lane, request.outputs))
    return Outcome(
        ttfts=ttfts, gaps=gaps, queue_waits=waits,
        output_tokens=output_tokens, prompt_tokens=prompt_tokens,
        serving_s=max(ends),
        attempted=len(log.tracks), failed=failed,
        slo_attain=reducers.slo_attainment(
            outcomes, workload.ttft_limit_s, workload.gap_limit_s),
        digest=reducers.output_digest(served_rows),
        cpu_per_wall=log.cpu_s / log.wall_s if log.wall_s else 0.0)


def check_outputs(workload: Workload, model: Transformer,
                  requests: Sequence[ServeRequest]) -> List[str]:
    """Served tokens of the checked requests vs solo ``generate``."""
    problems = []
    by_id = {r.request_id: r for r in requests}
    for rid in workload.checked:
        request = by_id.get(rid)
        if request is None:
            problems.append(f"request {rid} was not served")
            continue
        solo = generate(model, request.prompt, request.max_new_tokens,
                        backend=LongSightAttention(ATTENTION))
        if [int(t) for t in solo] != [int(t) for t in request.outputs]:
            problems.append(f"request {rid}: served tokens differ from "
                            "solo generate")
    return problems
