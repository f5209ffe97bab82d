"""The BOSON-1 optimization core (paper Sec. III).

* :mod:`repro.core.objective` — dense-objective construction, Eq. (2);
* :mod:`repro.core.relaxation` — conditional subspace relaxation, Eq. (3);
* :mod:`repro.core.sampling` — nominal / axial / exhaustive / random /
  axial+worst variation sampling strategies (Sec. III-E, Fig. 6a);
* :mod:`repro.core.optimizer` — Adam on raw numpy parameters;
* :mod:`repro.core.executors` — serial/remote fan-out backends
  with a deterministic ordered reduction;
* :mod:`repro.core.remote` — the frame protocol and the one frame
  server behind ``repro worker`` and ``repro serve``, plus the same
  fan-out over TCP: the ``remote:host:port[,...]`` executor with
  dead-worker resubmission;
* :mod:`repro.core.checkpoint` — crash-safe checkpoint/resume:
  digest-guarded :class:`DesignCheckpoint` snapshots, atomic rotation,
  graceful SIGINT/SIGTERM shutdown;
* :mod:`repro.core.engine` — :class:`Boson1Optimizer`, the end-to-end
  inverse-design loop; every paper technique is a config flag so the
  Table II ablations are configuration-only;
* :mod:`repro.core.serve` — the ``repro serve`` job daemon: on-disk job
  queue, checkpoint-forced execution, live ``watch`` streaming, and
  SIGKILL-safe restart/resume over the frame protocol.
"""

from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    DesignCheckpoint,
    GracefulShutdown,
    find_latest_checkpoint,
    resolve_resume,
)
from repro.core.config import OptimizerConfig
from repro.core.engine import Boson1Optimizer, OptimizationResult
from repro.core.executors import (
    CornerExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.objective import build_loss, radiation_power
from repro.core.optimizer import Adam
from repro.core.relaxation import RelaxationSchedule
from repro.core.sampling import (
    SamplingStrategy,
    make_sampling_strategy,
    SAMPLING_STRATEGIES,
)
from repro.core.serve import (  # noqa: E402 — needs engine imported first
    Job,
    JobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
)

__all__ = [
    "OptimizerConfig",
    "Boson1Optimizer",
    "OptimizationResult",
    "DesignCheckpoint",
    "CheckpointManager",
    "CheckpointError",
    "GracefulShutdown",
    "find_latest_checkpoint",
    "resolve_resume",
    "CornerExecutor",
    "SerialExecutor",
    "make_executor",
    "build_loss",
    "radiation_power",
    "Adam",
    "RelaxationSchedule",
    "SamplingStrategy",
    "make_sampling_strategy",
    "SAMPLING_STRATEGIES",
    "Job",
    "JobStore",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
]
