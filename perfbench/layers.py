"""Which public calls of the program belong to which layer.

:func:`install` wraps one entry point per layer boundary with a
:class:`~tracing.WallTracer` span.  Span names are the per-layer metric
names without their unit suffix; :func:`classify` charges each span's
self time to one of them.
"""

from __future__ import annotations

from repro.cluster.loop import EventLoop
from repro.core import system as core_system
from repro.core.mirror import MirrorModule
from repro.core.pm_data import PmDataModule
from repro.core.serving import SecureInferenceService
from repro.core.system import PliniusSystem
from repro.crypto.engine import EncryptionEngine
from repro.darknet.network import Network
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.region import RomulusRegion
from repro.romulus.transaction import Transaction
from repro.sgx import attestation
from repro.sgx.attestation import InferenceSession

#: Layers whose wall self time is reported, as ``<name>_ms`` per item.
#: ``romulus.tx`` covers beginning, writing and committing a
#: transaction; ``hw.pm.flush`` covers flushes and fences;
#: ``core.system`` is ``kill()``/``resume()`` minus the layers they call.
TIMED = (
    "darknet.train_batch",
    "darknet.infer",
    "core.pm_data.fetch",
    "core.mirror.out",
    "core.mirror.in",
    "core.system",
    "core.serving.handle_batch",
    "crypto.seal",
    "crypto.unseal",
    "crypto.open",
    "romulus.tx",
    "romulus.recover",
    "hw.pm.flush",
    "hw.pm.crash",
    "sgx.unseal_key",
    "sgx.session",
    "sgx.hkdf",
    "cluster.loop",
    "serving.gateway",
)


def _nbytes(buffer) -> int:
    return memoryview(buffer).nbytes


def install(tracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.unwrap_all()``."""
    w = tracer.wrap
    w(Network, "train_batch", "darknet.train_batch")
    w(Network, "infer", "darknet.infer")
    for attr in ("random_batch", "fetch_batch", "fetch_contiguous"):
        w(PmDataModule, attr, "core.pm_data.fetch")

    def save_before(args, kwargs):
        stats = args[0].region.device.stats
        return stats["fences"], stats["media_bytes"]

    def save_after(args, kwargs, state):
        stats = args[0].region.device.stats
        tracer.count("saves")
        tracer.count("save.fences", stats["fences"] - state[0])
        tracer.count("save.media_bytes", stats["media_bytes"] - state[1])
        tracer.count("save.model_bytes", args[1].param_bytes)

    w(MirrorModule, "mirror_out", "core.mirror.out", save_before, save_after)
    w(MirrorModule, "mirror_in", "core.mirror.in")
    w(PliniusSystem, "kill", "core.system")
    w(PliniusSystem, "resume", "core.system")
    w(SecureInferenceService, "handle_batch", "core.serving.handle_batch")

    def sealed(args, kwargs, state):
        tracer.count("sealed_bytes", _nbytes(args[1]))

    w(EncryptionEngine, "seal", "crypto.seal", after=sealed)
    w(EncryptionEngine, "seal_into", "crypto.seal", after=sealed)
    w(EncryptionEngine, "unseal", "crypto.unseal")
    w(EncryptionEngine, "unseal_from", "crypto.unseal")

    w(RomulusRegion, "begin_transaction", "romulus.tx")
    for attr in ("write", "write_prefilled", "commit", "abort"):
        w(Transaction, attr, "romulus.tx")
    w(RomulusRegion, "recover", "romulus.recover")

    w(PersistentMemoryDevice, "flush", "hw.pm.flush")
    w(PersistentMemoryDevice, "fence", "hw.pm.flush")
    w(PersistentMemoryDevice, "crash", "hw.pm.crash")

    w(core_system, "unseal_data", "sgx.unseal_key")
    w(InferenceSession, "open_request_into", "sgx.session")
    w(InferenceSession, "seal_response", "sgx.session")
    w(
        attestation, "hkdf_sha256", "sgx.hkdf",
        after=lambda args, kwargs, state: tracer.count("hkdf_calls"),
    )

    # The loop's own time is the scheduler; the callbacks it drives are
    # the gateway (serving layer).
    loop_run = EventLoop.__dict__["run"]

    def run(self, handler=None, post_event=None):
        if not tracer.active:
            return loop_run(self, handler, post_event)
        wrap = tracer.traced_callable
        return loop_run(
            self,
            wrap(handler, "serving.gateway") if handler else None,
            wrap(post_event, "serving.gateway") if post_event else None,
        )

    w(EventLoop, "run", "cluster.loop", impl=run)


def classify(span, parent) -> str:
    """The layer a span's self time is charged to."""
    if (
        span.name == "crypto.unseal"
        and parent is not None
        and parent.name == "sgx.session"
    ):
        # Opening a client request under its session, not a mirror
        # restore or a data-row decrypt.
        return "crypto.open"
    return span.name
