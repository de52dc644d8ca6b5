"""A stage worker: one enclave + one PM region + one encrypted mirror.

Both distributed modes are built from these.  A worker owns a slice of
the model (a whole replica in data-parallel mode, a contiguous run of
layers in pipeline mode) wrapped in a :class:`~repro.darknet.Network`,
an enclave whose EPC ledger tracks the slice, a PM device with a Romulus
region, and a :class:`~repro.core.MirrorModule` for its slice.

Workers are individually killable: :meth:`kill` destroys the enclave and
power-fails the PM device; :meth:`resume` recovers the region, rebuilds
the stage with fresh random weights and restores them from the mirror.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.mirror import MirrorModule
from repro.crypto.engine import EncryptionEngine
from repro.faults import plan as faultplan
from repro.darknet.network import Network
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE, RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile

ModelBuilder = Callable[[], Network]


def sized_worker_pm(param_bytes: int) -> int:
    """PM bytes a stage worker needs: two mirror snapshots + heap slack."""
    return 2 * (2 * param_bytes + (4 << 20)) + 8192


class StageWorker:
    """One secure machine participating in a distributed training job."""

    def __init__(
        self,
        name: str,
        profile: ServerProfile,
        build_model: ModelBuilder,
        job_key: bytes,
        clock: Optional[SimClock] = None,
        pm_size: Optional[int] = None,
        seed: int = 7,
        pm: Optional[PersistentMemoryDevice] = None,
    ) -> None:
        self.name = name
        self.profile = profile
        self.build_model = build_model
        self.job_key = job_key
        self.clock = clock if clock is not None else SimClock()
        self.rand = SgxRandom(name.encode() + seed.to_bytes(4, "big"))
        self.network = build_model()
        if pm is not None:
            # A host-owned device (the cluster substrate hands the
            # worker its host's PM so durable state survives the host).
            self.pm = pm
        else:
            if pm_size is None:
                pm_size = sized_worker_pm(self.network.param_bytes)
            self.pm = PersistentMemoryDevice(
                pm_size,
                self.clock,
                profile.pm,
                clflush_cost=profile.clflush_cost,
                clflushopt_cost=profile.clflushopt_cost,
                sfence_cost=profile.sfence_cost,
                store_cost=profile.store_cost,
                load_cost=profile.load_cost,
            )
        self._attach(fresh=True)
        self.mirror.alloc_mirror_model(self.network)

    # ------------------------------------------------------------------
    # Attachment seams — the cluster substrate's worker overrides these
    # to route enclave spawn and region attach through its Host, without
    # changing what happens (same constructors, same recovery).
    # ------------------------------------------------------------------
    def _spawn_enclave(self) -> Enclave:
        return Enclave(self.clock, self.profile.sgx)

    def _format_region(self, main_size: int) -> RomulusRegion:
        return RomulusRegion(self.pm, main_size).format()

    def _open_region(self) -> RomulusRegion:
        return RomulusRegion.open(self.pm)

    def _attach(self, fresh: bool) -> None:
        self.enclave = self._spawn_enclave()
        self.enclave.malloc("stage", self.network.param_bytes)
        self.engine = EncryptionEngine(self.job_key, rand=self.rand)
        main_size = (self.pm.size - HEADER_SIZE) // 2
        if fresh:
            self.region = self._format_region(main_size)
        else:
            self.region = self._open_region()
        self.heap = PersistentHeap(self.region)
        self.mirror = MirrorModule(
            self.region, self.heap, self.engine, self.enclave, self.profile
        )

    # ------------------------------------------------------------------
    # Compute (charges simulated time on this worker's clock)
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Run the stage forward; charges compute + paging."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("distributed.worker.step")
        self._charge_compute(x.shape[0], fraction=1 / 3)
        self.enclave.touch(self.network.param_bytes)
        return self.network.forward(x, train=train)

    def backward_from(
        self, delta: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Back-propagate an incoming delta through the stage; the input
        delta is computed only if ``input_grad`` (the first stage has
        nobody to send it to)."""
        self._charge_compute(delta.shape[0], fraction=2 / 3)
        self.enclave.touch(2 * self.network.param_bytes)
        return self.network.backward_from(delta, input_grad)

    def loss_and_backward(
        self, y: np.ndarray, input_grad: bool = False
    ) -> tuple:
        """For a stage ending in softmax: compute the loss against ``y``
        and back-propagate; returns ``(loss, input delta)``, the delta
        being ``None`` unless ``input_grad`` asks for it."""
        net = self.network
        loss = net.softmax.loss(y)
        self._charge_compute(y.shape[0], fraction=2 / 3)
        self.enclave.touch(2 * net.param_bytes)
        return loss, net.backward(input_grad)

    def update(self) -> None:
        """Apply the stage's accumulated gradients."""
        self.network.update()

    def collect_gradients(self) -> list:
        """Copies of the accumulated (parameter, gradient) gradients."""
        return [
            grad.copy()
            for layer in self.network.layers
            for _, grad in layer.trainable()
        ]

    def apply_gradients(self, gradients: list) -> None:
        """Overwrite the accumulated gradients (post-allreduce) and step."""
        pairs = [
            grad
            for layer in self.network.layers
            for _, grad in layer.trainable()
        ]
        if len(pairs) != len(gradients):
            raise ValueError(
                f"{len(gradients)} gradients for {len(pairs)} parameters"
            )
        for target, value in zip(pairs, gradients):
            target[...] = value
        self.network.update()

    def _charge_compute(self, batch: int, fraction: float) -> None:
        flops = self.network.flops(batch) * fraction
        self.clock.advance(self.profile.compute.iteration_time(flops))

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def mirror_out(self, iteration: int) -> None:
        """Persist the stage's encrypted mirror."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("distributed.worker.mirror")
        self.mirror.mirror_out(self.network, iteration)

    def kill(self) -> None:
        """Crash this worker only: enclave dies, PM power-fails."""
        self.enclave.destroy()
        self.pm.crash()

    def resume(self) -> int:
        """Recover: fresh enclave + fresh weights, restored from PM.

        Returns the iteration recorded in the mirror.
        """
        self.network = self.build_model()  # fresh random weights
        self._attach(fresh=False)
        self.mirror.mirror_in(self.network)
        return self.network.iteration

    @property
    def over_epc(self) -> bool:
        """Whether this worker's slice exceeds its usable EPC."""
        return self.enclave.over_epc
