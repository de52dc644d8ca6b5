"""The benchmark's three workloads.

Each workload builds a deployment from the seed (:meth:`setup`, the
timed set-up), runs a short fixed :meth:`probe` whose simulated numbers
and digests must be identical in every deployment built from one seed,
and then runs timed steps until its deadline (:meth:`run`), checking
every output.

``train-mirror``
    Algorithm 2 (``repro train``): one trainer, closed loop, the 5-conv
    MNIST CNN mirrored to PM after every iteration.  Step: one
    iteration.  Item: one iteration.  Stresses ``darknet``.
``ckpt-cycle``
    The Fig. 7 model (5 x 512-filter conv, 38.8 MB, 27 buffers) saved
    with ``mirror_out``, power-failed with ``kill()``, recovered with
    ``resume()`` and restored with ``mirror_in`` into a second model,
    closed loop.  Step and item: one cycle.  Stresses ``crypto``,
    ``romulus``, ``hw.pm`` and ``sgx`` key unsealing; no ``darknet``.
``serve-open``
    Poisson arrivals at 30,000 req/s (simulated clock) from 2 sessions
    into an ``InferenceGateway`` over 4 replicas x batch 16 serving a
    mirrored 1-conv model, open loop.  Item: one request.  Step: the
    wall time in which the gateway completes 16 more batches (256
    requests when batches are full).  Stresses ``core.serving``, ``darknet``
    inference, ``sgx`` session crypto and the ``cluster`` event loop;
    PM and ``romulus`` are idle after set-up.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.models import build_mnist_cnn, build_sized_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import SEAL_OVERHEAD
from repro.data import synthetic_mnist, to_data_matrix
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceGateway,
    ReplicaPool,
)

SERVER = "emlSGX-PM"

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: exists only for the self-check and finishes in a few seconds.
SIZES = {
    "full": {
        "train-mirror": dict(rows=1024, layers=5, filters=8, batch=32),
        "ckpt-cycle": dict(layers=5, filters=512),
        "serve-open": dict(drain=4096, probe_drain=1024),
    },
    "tiny": {
        "train-mirror": dict(rows=64, layers=1, filters=2, batch=4),
        "ckpt-cycle": dict(layers=1, filters=16),
        "serve-open": dict(drain=256, probe_drain=64),
    },
}


@dataclass
class Tally:
    """Everything one timed run measured and checked."""

    #: Wall seconds of each step (iteration, cycle, or replica batch).
    step_s: List[float] = field(default_factory=list)
    #: Items completed (iterations, cycles, requests) and the wall
    #: seconds they took; ``items / busy_s`` is the throughput.
    items: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Named wall-second samples reported beside the metrics.
    wall: Dict[str, List[float]] = field(default_factory=dict)
    #: Named simulated-second samples.
    sim: Dict[str, List[float]] = field(default_factory=dict)
    #: Simulated seconds elapsed inside the timed operations.
    sim_total: float = 0.0
    #: Serve only: requests per gateway batch, and queue waits (sim s).
    batch_sizes: List[int] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)

    def check(self, ok: int, what: str, attempted: int = 1) -> None:
        """Count ``attempted`` checked outputs, of which ``ok`` passed."""
        self.attempted += attempted
        if ok < attempted:
            self.failed += attempted - int(ok)
            if len(self.failures) < 10:
                self.failures.append(what)

    def add(self, bucket: Dict[str, List[float]], name: str, value) -> None:
        bucket.setdefault(name, []).append(value)


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _pm_digest(pm, chunk: int = 16 << 20) -> str:
    """Digest of the PM device's durable (crash-surviving) image."""
    h = hashlib.sha256()
    for addr in range(0, pm.size, chunk):
        h.update(pm.durable_read(addr, min(chunk, pm.size - addr)))
    return h.hexdigest()


def _param_digest(network) -> str:
    return _digest(*(arr.tobytes() for _, (_, arr) in network.parameter_buffers()))


class _NoTracer:
    """Stands in for a :class:`~tracing.WallTracer` in untraced runs."""

    def begin_op(self, op: int) -> None:
        pass

    def end_op(self) -> None:
        pass


NO_TRACER = _NoTracer()


# ----------------------------------------------------------------------
# train-mirror
# ----------------------------------------------------------------------
class TrainMirror:
    name = "train-mirror"
    item = "iteration"
    probe_iterations = 3

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        images, labels, _, _ = synthetic_mnist(self.cfg["rows"], 1, seed=seed)
        self.data = to_data_matrix(images, labels)

    def setup(self, recorder=None):
        system = PliniusSystem.create(
            server=SERVER, seed=self.seed, crypto_threads=1, recorder=recorder
        )
        system.load_data(self.data)
        model = system.build_model(
            n_conv_layers=self.cfg["layers"],
            filters=self.cfg["filters"],
            batch=self.cfg["batch"],
        )
        system.mirror.alloc_mirror_model(model)
        trainer = system.trainer(model)
        return {"system": system, "model": model, "trainer": trainer}

    def probe(self, dep, tally: Tally) -> dict:
        result = dep["trainer"].train(self.probe_iterations)
        for loss in result.log.losses:
            tally.check(math.isfinite(loss), f"non-finite loss {loss}")
        return {
            "losses": list(result.log.losses),
            "sim": [
                (t.fetch_seconds, t.compute_seconds, t.mirror_seconds)
                for t in result.iteration_timings
            ],
            "pm": _pm_digest(dep["system"].pm),
            "params": _param_digest(dep["model"]),
        }

    def run(self, dep, tally: Tally, deadline: float, min_steps: int,
            tracer=NO_TRACER) -> None:
        system, trainer = dep["system"], dep["trainer"]
        stamps: List[float] = []

        def boundary(iteration: int) -> bool:
            # Called by the trainer before every iteration: the gap
            # between two calls is one whole iteration.
            now = time.perf_counter()
            if stamps:
                tracer.end_op()
            stamps.append(now)
            if len(stamps) > min_steps and now >= deadline:
                return True
            tracer.begin_op(iteration)
            return False

        sim0 = system.clock.now()
        result = trainer.train(2**62, kill_hook=boundary)
        tally.sim_total += system.clock.now() - sim0
        steps = [b - a for a, b in zip(stamps, stamps[1:])]
        tally.step_s += steps
        tally.items += len(steps)
        tally.busy_s += sum(steps)
        for t in result.iteration_timings:
            tally.add(tally.sim, "iteration", t.total)
        for loss in result.log.losses:
            tally.check(math.isfinite(loss), f"non-finite loss {loss}")
        tally.check(
            len(result.log.losses) == len(steps),
            "trainer ran a different number of iterations than timed",
        )


# ----------------------------------------------------------------------
# ckpt-cycle
# ----------------------------------------------------------------------
class CkptCycle:
    name = "ckpt-cycle"
    item = "cycle"
    probe_cycles = 2

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.cycles = 0

    def _model(self, stream: int):
        filters, layers = self.cfg["filters"], self.cfg["layers"]
        per_layer = 4 * (filters * filters * 9 + 4 * filters)
        rng = np.random.default_rng((self.seed, layers, stream))
        return build_sized_cnn(layers * per_layer, rng=rng, filters=filters)

    def setup(self, recorder=None):
        source = self._model(0)
        target = self._model(1)
        footprint = source.param_bytes + SEAL_OVERHEAD * len(
            source.parameter_buffers()
        )
        system = PliniusSystem.create(
            server=SERVER,
            seed=self.seed,
            pm_size=2 * (footprint + (2 << 20)) + 8192,
            crypto_threads=1,
            recorder=recorder,
        )
        system.enclave.malloc("model", source.param_bytes)
        system.mirror.alloc_mirror_model(source)
        self.cycles = 0
        return {"system": system, "source": source, "target": target}

    def _cycle(self, dep, tally: Tally, timed: bool, tracer=NO_TRACER) -> tuple:
        """One save/kill/resume/restore cycle; returns its sim seconds."""
        system, source, target = dep["system"], dep["source"], dep["target"]
        self.cycles += 1
        cycle = self.cycles
        # Untimed: the model moves on between saves (one element of
        # every buffer), and the restore target holds no valid weights.
        for _, (_, arr) in source.parameter_buffers():
            arr.flat[cycle % arr.size] += 1.0
        for _, (_, arr) in target.parameter_buffers():
            arr.fill(np.nan)

        tracer.begin_op(cycle)
        t0 = time.perf_counter()
        s0 = system.clock.now()
        system.mirror.mirror_out(source, cycle)
        t1 = time.perf_counter()
        s1 = system.clock.now()
        system.kill()
        system.resume()
        system.enclave.malloc("model", target.param_bytes)
        system.mirror.mirror_in(target)
        t2 = time.perf_counter()
        s2 = system.clock.now()
        tracer.end_op()

        if timed:
            tally.step_s.append(t2 - t0)
            tally.items += 1
            tally.busy_s += t2 - t0
            tally.add(tally.wall, "save", t1 - t0)
            tally.add(tally.wall, "restore", t2 - t1)
            tally.add(tally.sim, "save", s1 - s0)
            tally.add(tally.sim, "restore", s2 - s1)
            tally.sim_total += s2 - s0
        equal = target.iteration == cycle and all(
            np.array_equal(a.view(np.uint32), b.view(np.uint32))
            for (_, (_, a)), (_, (_, b)) in zip(
                source.parameter_buffers(), target.parameter_buffers()
            )
        )
        tally.check(equal, f"cycle {cycle}: restored model differs")
        return s1 - s0, s2 - s1

    def probe(self, dep, tally: Tally) -> dict:
        sims = [self._cycle(dep, tally, False) for _ in range(self.probe_cycles)]
        return {
            "sim": sims,
            "pm": _pm_digest(dep["system"].pm),
            "params": _param_digest(dep["target"]),
        }

    def run(self, dep, tally: Tally, deadline: float, min_steps: int,
            tracer=NO_TRACER) -> None:
        steps = 0
        while steps < min_steps or time.perf_counter() < deadline:
            self._cycle(dep, tally, True, tracer)
            steps += 1


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
class ServeOpen:
    name = "serve-open"
    item = "request"
    rate = 30_000.0
    replicas = 4
    batch_max = 16
    max_delay = 2e-3
    sessions = 2
    step_batches = 16

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.drains = 0

    def _factory(self):
        return build_mnist_cnn(
            n_conv_layers=1, filters=4, batch=self.batch_max,
            rng=np.random.default_rng(self.seed),
        )

    def setup(self, recorder=None):
        system = PliniusSystem.create(
            server=SERVER, seed=self.seed, pm_size=8 << 20, crypto_threads=1,
            recorder=recorder,
        )
        model = self._factory()
        system.mirror.alloc_mirror_model(model)
        system.mirror.mirror_out(model, 1)
        pool = ReplicaPool(
            system.mirror,
            system.quoting_enclave,
            system.clock,
            system.profile,
            self._factory,
            n_replicas=self.replicas,
        )
        clients = []
        for sid in range(1, self.sessions + 1):
            client = InferenceClient(pool.measurement, seed=sid)
            pool.open_session(client, sid)
            clients.append(client)
        self.drains = 0
        dep = {"system": system, "model": model, "pool": pool,
               "clients": clients, "batch_done": []}
        self._time_batches(dep)
        return dep

    @staticmethod
    def _time_batches(dep) -> None:
        """Stamp the wall time at which every replica batch completes."""
        done = dep["batch_done"]
        for replica in dep["pool"].replicas:
            service = replica.service
            handle = service.handle_batch

            def stamped(items, traces=None, _handle=handle):
                try:
                    return _handle(items, traces=traces)
                finally:
                    done.append(time.perf_counter())

            service.handle_batch = stamped

    def _drain(self, dep, n: int, tally: Tally, timed: bool, tracer=NO_TRACER):
        """Seal ``n`` requests, drain them through a gateway, check all."""
        system, pool, clients = dep["system"], dep["pool"], dep["clients"]
        self.drains += 1
        drain = self.drains
        rng = np.random.default_rng((self.seed, drain))
        arrivals = np.cumsum(rng.exponential(1.0 / self.rate, size=n))
        images = rng.random((n, 1, 28, 28), dtype=np.float32)

        # Load generator (untimed): seal every request up front.
        g0 = time.perf_counter()
        gateway = InferenceGateway(
            pool,
            system.clock,
            BatchPolicy(max_requests=self.batch_max, max_delay=self.max_delay),
            AdmissionPolicy(max_queue_depth=n),
        )
        base = system.clock.now()
        seqs = []
        for i in range(n):
            client = clients[i % len(clients)]
            seq, sealed = client.seal_request_seq(images[i : i + 1])
            seqs.append(seq)
            gateway.submit(
                client.session_id, seq, sealed, 1, at=base + float(arrivals[i])
            )
        g1 = time.perf_counter()

        done = dep["batch_done"]
        del done[:]
        tracer.begin_op(drain)
        t0 = time.perf_counter()
        s0 = system.clock.now()
        result = gateway.run()
        t1 = time.perf_counter()
        s1 = system.clock.now()
        tracer.end_op()

        records = [result.responses.get(rid) for rid in range(n)]
        # The reference predicts one image at a time: the serve path is
        # bitwise equal to that, whereas a batched ``predict`` rounds
        # differently and can flip the argmax of a near tie.
        model = dep["model"]
        expected = [int(np.argmax(model.predict(images[i : i + 1])))
                    for i in range(n)]
        digest = hashlib.sha256()
        latencies = []
        served = 0
        for rid, record in enumerate(records):
            if record is None:
                continue
            digest.update(record.sealed)
            latencies.append(record.latency)
            client = clients[rid % len(clients)]
            try:
                got = client.open_response_seq(seqs[rid], record.sealed)
            except IntegrityError:
                continue
            served += int(len(got) == 1 and int(got[0]) == expected[rid])
        tally.check(
            served,
            f"drain {drain}: {n - served} of {n} requests rejected, "
            "missing or mispredicted",
            attempted=n,
        )
        if timed:
            # One step: the wall time until 16 more batches completed.
            marks = [t0] + done[self.step_batches - 1 :: self.step_batches]
            tally.step_s += [b - a for a, b in zip(marks, marks[1:])]
            tally.items += n
            tally.busy_s += t1 - t0
            tally.sim_total += s1 - s0
            tally.add(tally.wall, "loadgen_seal", g1 - g0)
            tally.sim.setdefault("latency", []).extend(latencies)
            dispatched = {b.batch_id: b.dispatched_at for b in result.batches}
            tally.queue_wait += [
                dispatched[r.batch_id] - r.arrival for r in records if r
            ]
            tally.batch_sizes += [b.n_requests for b in result.batches]
        return latencies, digest.hexdigest()

    def probe(self, dep, tally: Tally) -> dict:
        latencies, digest = self._drain(dep, self.cfg["probe_drain"], tally, False)
        return {"latency": latencies, "responses": digest}

    def run(self, dep, tally: Tally, deadline: float, min_steps: int,
            tracer=NO_TRACER) -> None:
        while len(tally.step_s) < min_steps or time.perf_counter() < deadline:
            self._drain(dep, self.cfg["drain"], tally, True, tracer)


WORKLOADS = {w.name: w for w in (TrainMirror, CkptCycle, ServeOpen)}
