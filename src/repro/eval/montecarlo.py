"""Monte-Carlo post-fabrication evaluation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.executors import (
    CornerExecutor,
    fan_out,
    make_executor,
    run_warm_task,
)
from repro.core.sampling import omega_groups, scenario_family
from repro.devices.base import PhotonicDevice
from repro.fab.corners import VariationCorner
from repro.fab.litho import LITHO_CORNER_NAMES
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature
from repro.obs.trace import tracing_active
from repro.utils.seeding import rng_from_seed

__all__ = [
    "RobustnessReport",
    "evaluate_post_fab",
    "evaluate_ideal",
]

#: Samples per blocked solve on the in-process ``krylov-block`` path of
#: :func:`evaluate_post_fab`.  Monte-Carlo draws are *diverse*
#: (independent litho corners, temperatures, EOLE fields), so on a cold
#: workspace most of a large block would burn its iteration budget
#: against the single first-sample anchor and fall back.  Small chunks
#: let each chunk's fallback factorizations re-anchor the workspace for
#: the next one — measured on the bending device, 8 cold samples: one
#: 8-block pays 8 fallbacks, chunks of 2 pay 2 — while warm evaluations
#: lose almost nothing to the smaller block width.
_SAMPLES_PER_BLOCK = 2


@dataclass
class RobustnessReport:
    """Statistics of a Monte-Carlo robustness evaluation.

    ``foms`` are per-sample FoM values; ``mean_powers`` averages each
    monitored port power over the samples (the paper's
    ``[fwd, bwd]`` columns).  ``fom_lower_is_better`` records the
    device's FoM polarity so that :attr:`worst_fom` is meaningful
    without caller-side bookkeeping.
    """

    foms: np.ndarray
    mean_powers: dict[str, dict[str, float]]
    corners: list[VariationCorner] = field(repr=False, default_factory=list)
    fom_lower_is_better: bool = False

    @property
    def mean_fom(self) -> float:
        return float(np.mean(self.foms))

    @property
    def std_fom(self) -> float:
        return float(np.std(self.foms))

    @property
    def worst_fom(self) -> float:
        """The worst sample for this FoM's polarity.

        The maximum when lower is better (a cost, e.g. the isolator's
        contrast ratio), otherwise the minimum.
        """
        if self.fom_lower_is_better:
            return float(np.max(self.foms))
        return float(np.min(self.foms))

    @property
    def best_fom(self) -> float:
        """The best sample for this FoM's polarity."""
        if self.fom_lower_is_better:
            return float(np.min(self.foms))
        return float(np.max(self.foms))

    @property
    def n_samples(self) -> int:
        return int(self.foms.size)

    # ------------------------------------------------------------------ #
    # Scenario stratification                                            #
    # ------------------------------------------------------------------ #
    def stratified_foms(self) -> "dict[float | None, np.ndarray]":
        """Per-wavelength FoM arrays, in first-appearance order.

        The key ``None`` is the device's own centre wavelength (every
        sample of a plain, non-stratified evaluation).  Evaluations run
        with a ``wavelengths_um`` axis yield one stratum per wavelength,
        each holding the same underlying fabrication draws — a
        variance-reduced comparison across operating points.
        """
        out: dict = {}
        for fom, corner in zip(self.foms, self.corners):
            out.setdefault(corner.wavelength_um, []).append(float(fom))
        return {k: np.asarray(v) for k, v in out.items()}

    def yield_fraction(self, threshold: float) -> float:
        """Fraction of samples whose FoM meets ``threshold``."""
        if self.fom_lower_is_better:
            return float(np.mean(self.foms <= threshold))
        return float(np.mean(self.foms >= threshold))

    def stratified_yield(self, threshold: float) -> "dict[float | None, float]":
        """Per-wavelength yield fractions (see :meth:`stratified_foms`)."""
        out = {}
        for lam, foms in self.stratified_foms().items():
            if self.fom_lower_is_better:
                out[lam] = float(np.mean(foms <= threshold))
            else:
                out[lam] = float(np.mean(foms >= threshold))
        return out


def sample_corner(
    rng: np.random.Generator,
    n_xi: int,
    t_delta: float = 30.0,
    index: int = 0,
) -> VariationCorner:
    """One Monte-Carlo variation draw matching the paper's protocol.

    Lithography corner uniform over {min, nominal, max}, temperature
    uniform over +-``t_delta`` around 300 K, EOLE coefficients standard
    normal.
    """
    litho = LITHO_CORNER_NAMES[int(rng.integers(0, 3))]
    t = 300.0 + float(rng.uniform(-t_delta, t_delta))
    xi = rng.standard_normal(n_xi) if n_xi > 0 else None
    return VariationCorner(f"mc-{index}", litho=litho, temperature_k=t, xi=xi)


def _evaluate_sample(
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    corner: VariationCorner,
) -> tuple[float, dict[str, dict[str, float]]]:
    """FoM + per-port powers of one fabricated variation draw.

    Module-level (not a closure) so the remote backend can pickle it;
    worker processes re-warm their own simulation caches.
    """
    device = device.for_corner(corner)
    fabbed = process.apply_array(pattern, corner)
    alpha_bg = alpha_of_temperature(corner.temperature_k)
    powers = device.port_powers_array_all(fabbed, alpha_bg)
    return device.fom(powers), powers


def _evaluate_sample_task(
    device: PhotonicDevice,
    process: FabricationProcess,
    capture: bool,
    item: "tuple[np.ndarray, VariationCorner]",
):
    """Worker-task variant of :func:`_evaluate_sample` on a ``(pattern,
    corner)`` item.

    The same seam the taped corner fan-out uses
    (:func:`repro.core.executors.run_warm_task` brackets the
    stats delta): a worker keeps the seeded partial, and with it
    ``device``, in its seed cache.  The pattern rides the item, so the
    workspace and calibration caches stay warm across repeated
    evaluations of any pattern on the device.  The task returns
    ``((fom, powers), solver-stats delta, worker identity, obs
    payload)`` for :func:`repro.core.executors.fan_out` to merge.
    """
    pattern, corner = item
    return run_warm_task(
        lambda: _evaluate_sample(device, process, pattern, corner),
        device.workspace,
        capture_obs=capture,
    )


def _evaluate_local(
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    corners: "list[VariationCorner]",
) -> "list[tuple[float, dict[str, dict[str, float]]]]":
    """In-process FoMs + powers of every scenario, in corner order.

    Samples are grouped by omega
    (:func:`~repro.core.sampling.omega_groups`, the partition the design
    loop uses) so each wavelength's samples share their Laplacian.  Each
    group is evaluated through the device's power op:
    :data:`_SAMPLES_PER_BLOCK` samples per call on a block-capable
    backend — one blocked solve each, the first sample of a chunk
    anchoring it — and one sample per call otherwise, with every
    sample's factorizations started before the first call
    (:meth:`PhotonicDevice.prefactor`).
    """
    fabbed = [process.apply_array(pattern, c) for c in corners]
    alphas = [alpha_of_temperature(c.temperature_k) for c in corners]
    results: list = [None] * len(corners)
    for idxs in omega_groups(corners, device.wavelength_um).values():
        clone = device.for_corner(corners[idxs[0]])
        if clone.supports_corner_block:
            step = _SAMPLES_PER_BLOCK
        else:
            step = 1
            clone.prefactor(
                [fabbed[i] for i in idxs], [alphas[i] for i in idxs]
            )
        for start in range(0, len(idxs), step):
            sel = idxs[start:start + step]
            chunk = clone.port_powers_array_corners(
                [fabbed[i] for i in sel], [alphas[i] for i in sel]
            )
            for i, powers in zip(sel, chunk):
                results[i] = (clone.fom(powers), powers)
    return results


def evaluate_post_fab(
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    n_samples: int = 20,
    seed: int = 1234,
    t_delta: float = 30.0,
    executor: CornerExecutor | str | None = None,
    remote_timeout: float | None = None,
    wavelengths_um=None,
) -> RobustnessReport:
    """Expected post-fabrication performance of a design pattern.

    Parameters
    ----------
    device / process:
        The device geometry and the fabrication chain to push the pattern
        through.
    pattern:
        Ideal design pattern (design-region shape, values in [0, 1]).
    n_samples:
        Monte-Carlo draws (paper uses 20).
    seed:
        Evaluation seed, independent of the optimization seed.
    executor:
        Sample fan-out backend (``None``/``"serial"``,
        ``"remote:host:port[,...]"``, or a
        :class:`~repro.core.executors.CornerExecutor`).
        All corners are drawn *before* the fan-out and results reduce in
        sample order, so with LU-backed solver backends the report is
        bit-identical for every backend and worker count — including the
        remote backend, whose dead-worker resubmission re-runs the same
        pure per-sample tasks on survivors.  The serial executor
        evaluates samples in-process through the device's power op;
        with a block-capable backend (``krylov-block``) every
        :data:`_SAMPLES_PER_BLOCK` samples join one blocked solve
        (:meth:`PhotonicDevice.port_powers_array_corners`) — the first
        sample anchors the block deterministically, and samples that
        don't converge against it fall back to their own direct
        factorizations.  The remote executor dispatches one task per
        sample through :func:`repro.core.executors.fan_out`, the seam
        the design loop's forward replay uses; its workers re-warm their
        own workspaces and anchor per worker, so preconditioned backends
        agree with serial to the solver tolerance there.
    remote_timeout:
        Dead-worker detection bound (seconds) for ``remote`` executor
        specs; ignored otherwise.  ``None`` keeps the default
        (:data:`repro.core.remote.DEFAULT_REMOTE_TIMEOUT`).
    wavelengths_um:
        Optional wavelength axis for scenario-stratified evaluation:
        every Monte-Carlo fabrication draw is re-evaluated at each
        wavelength (same draws across strata — a paired comparison),
        and the report exposes per-wavelength statistics via
        :meth:`RobustnessReport.stratified_foms` /
        :meth:`~RobustnessReport.stratified_yield`.  Scenarios are
        grouped by omega on the blocked path so each wavelength's
        samples share their Laplacian.  ``None`` (the default) keeps
        the single-wavelength behaviour bit-for-bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pattern = np.asarray(pattern, dtype=np.float64)
    rng = rng_from_seed(seed)
    corners = [
        sample_corner(rng, process.eole.n_terms, t_delta, index=i)
        for i in range(n_samples)
    ]
    # Wavelength stratification crosses the *same* fabrication draws
    # with each operating point; with no axis this is the identity.
    corners = scenario_family(corners, wavelengths_um)
    n_scenarios = len(corners)

    pool = make_executor(executor, remote_timeout=remote_timeout)
    try:
        if pool.supports_shared_memory:
            results = _evaluate_local(device, process, pattern, corners)
        else:
            task = functools.partial(
                _evaluate_sample_task, device, process, tracing_active()
            )
            results, _workers = fan_out(
                pool,
                task,
                [(pattern, corner) for corner in corners],
                device.workspace,
                "eval.dispatch",
                samples=len(corners),
            )
    finally:
        if not isinstance(executor, CornerExecutor):
            pool.shutdown()

    foms = np.zeros(n_scenarios)
    power_sums: dict[str, dict[str, float]] = {
        d: {} for d in device.directions
    }
    for i, (fom, powers) in enumerate(results):
        foms[i] = fom
        for d, dp in powers.items():
            for name, value in dp.items():
                power_sums[d][name] = power_sums[d].get(name, 0.0) + value
    mean_powers = {
        d: {name: total / n_scenarios for name, total in dp.items()}
        for d, dp in power_sums.items()
    }
    return RobustnessReport(
        foms=foms,
        mean_powers=mean_powers,
        corners=corners,
        fom_lower_is_better=device.fom_lower_is_better,
    )


def evaluate_ideal(
    device: PhotonicDevice,
    pattern: np.ndarray,
) -> tuple[float, dict[str, dict[str, float]]]:
    """FoM of the *un-fabricated* pattern at nominal conditions.

    This is the numerically-plausible pre-fab figure that the paper's
    arrows start from.
    """
    pattern = np.asarray(pattern, dtype=np.float64)
    powers = device.port_powers_array_all(pattern, 1.0)
    return device.fom(powers), powers
