"""End-to-end BOSON-1 inverse-design engine.

:class:`Boson1Optimizer` wires every subsystem together:

    theta --P--> pattern --[L_l, E_eta, T_t]--> scaled pattern
          --FDFD+adjoint--> port powers --Eq.2--> corner loss
          --Eq.3 blend + corner aggregation--> scalar loss --Adam--> theta'

All paper techniques are :class:`~repro.core.config.OptimizerConfig`
switches; see that module for the ablation mapping.

Corner losses come from one loop,
:meth:`Boson1Optimizer._corner_losses`, over the omega groups of the
iteration's scenario family.  Executors differ only in how a group gets
its powers: in-process through the device's power op (serial), or
through :func:`repro.core.executors.fan_out`, whose workers replay the
forward solves while the parent keeps the tape (remote).
"""

from __future__ import annotations

import logging
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.autodiff import Tensor
from repro.core.checkpoint import (
    CheckpointManager,
    DesignCheckpoint,
    GracefulShutdown,
    config_digest,
)
from repro.core.config import OptimizerConfig
from repro.core.executors import (
    SerialExecutor,
    fan_out,
    make_executor,
    run_warm_task,
)
from repro.core.objective import (
    aggregate_losses,
    build_loss,
    parse_aggregate,
    radiation_power,
)
from repro.core.optimizer import Adam
from repro.core.relaxation import RelaxationSchedule
from repro.core.remote import RemoteFleetDead
from repro.core.sampling import (
    ScenarioFamilySampling,
    make_sampling_strategy,
    omega_groups,
)
from repro.devices.base import PhotonicDevice
from repro.fab.corners import VariationCorner
from repro.obs.export import TraceSession
from repro.obs.metrics import get_metrics
from repro.obs.trace import span, tracing_active
from repro.fab.litho import GaussianLithography
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature
from repro.fab.etch import tanh_projection
from repro.params.density import DensityParameterization
from repro.params.levelset import LevelSetParameterization
from repro.params.initializers import (
    random_theta,
    rasterize_segments,
    theta_from_pattern,
)
from repro.utils.seeding import get_rng_state, rng_from_seed, set_rng_state

__all__ = ["Boson1Optimizer", "OptimizationResult", "IterationRecord"]

log = logging.getLogger("repro.engine")


class _CornerForwardTask:
    """One optimizer's forward-replay task (module-level so it pickles).

    Called with a pickle-clean ``(solver epoch, alpha_bg, rho_fab
    array)`` item; returns ``(ForwardSolveSummary, solver-stats delta,
    worker identity, obs payload)`` through
    :func:`repro.core.executors.run_warm_task`.  The identity rides
    along as evidence that workers actually ran (asserted by tests and
    recorded by the benchmark); the obs payload (span tree + metric
    deltas) is captured only when the parent's tracing was active at
    dispatch (``capture``).

    The parent builds the task fresh each iteration with ``epoch``
    unset and the epoch riding each item, so the pickled task is the
    same bytes every iteration: a worker is seeded once per omega group
    and keeps this object — device, warmed workspace and ``epoch`` — in
    its seed cache across tasks and iterations.  ``epoch`` tracks the
    parent's solver epoch, so preconditioner anchors are dropped exactly
    once per iteration — the worker-side mirror of the parent's
    ``begin_solver_epoch`` call.  ``run_tag`` makes each optimizer run
    its own seed, so concurrent runs on identical devices neither take
    turns on one seed nor meet each other's epochs.
    """

    def __init__(self, device: PhotonicDevice, capture: bool, run_tag: str):
        self.device = device
        self.capture = capture
        self.run_tag = run_tag
        self.epoch: int | None = None

    def __call__(self, item):
        return run_warm_task(
            lambda: self._summarize(*item),
            self.device.workspace,
            capture_obs=self.capture,
        )

    def _summarize(self, epoch: int, alpha_bg: float, rho_fab: np.ndarray):
        workspace = self.device.workspace
        if workspace is not None and epoch != self.epoch:
            workspace.begin_solver_epoch()
        self.epoch = epoch
        return self.device.solve_forward_summary(rho_fab, alpha_bg)


@dataclass
class IterationRecord:
    """Per-iteration trace entry (feeds the Fig. 5 trajectory plots)."""

    iteration: int
    loss: float
    p: float
    n_corners: int
    fom: float
    powers: dict[str, dict[str, float]]

    def radiation(self, direction: str) -> float:
        """``1 - sum(ports)`` for one direction at this iteration."""
        return 1.0 - sum(self.powers[direction].values())


@dataclass
class OptimizationResult:
    """Output of one optimization run."""

    theta: np.ndarray
    pattern: np.ndarray
    history: list[IterationRecord]
    config: OptimizerConfig
    device_name: str
    final_loss: float = field(default=float("nan"))
    #: True when the run stopped early on a graceful-shutdown signal
    #: (the final checkpoint then holds everything needed to resume).
    interrupted: bool = field(default=False)

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    def fom_trace(self) -> np.ndarray:
        return np.array([r.fom for r in self.history])

    def loss_trace(self) -> np.ndarray:
        return np.array([r.loss for r in self.history])

    def power_trace(self, direction: str, port: str) -> np.ndarray:
        """Time series of one port power (e.g. Fig. 5 transmission)."""
        return np.array([r.powers[direction][port] for r in self.history])

    def radiation_trace(self, direction: str) -> np.ndarray:
        return np.array([r.radiation(direction) for r in self.history])

    def to_payload(self) -> dict:
        """The result JSON ``repro design`` and ``repro serve`` save
        (:func:`repro.utils.io.save_result`; ``repro evaluate`` reads it).
        """
        return {
            "device": self.device_name,
            "method": "BOSON-1",
            "pattern": self.pattern,
            "fom_trace": self.fom_trace(),
            "final_loss": self.final_loss,
            "seed": self.config.seed,
            "iterations": self.config.iterations,
        }


class Boson1Optimizer:
    """The adaptive variation-aware subspace optimizer.

    Parameters
    ----------
    device:
        Benchmark device to design.
    config:
        Technique switches and hyper-parameters.
    process:
        Fabrication chain; built with the device's litho context when
        omitted.
    objective_terms:
        Optional override of the device objective (used by the ``-eff``
        baseline variant).
    """

    def __init__(
        self,
        device: PhotonicDevice,
        config: OptimizerConfig | None = None,
        process: FabricationProcess | None = None,
        objective_terms: dict | None = None,
        fab_pad: int = 12,
    ):
        self.device = device
        self.config = config or OptimizerConfig()
        self.rng = rng_from_seed(self.config.seed)
        solver = self.config.solver
        if solver is not None and device.workspace is None:
            if solver.backend != "direct":
                raise ValueError(
                    f"solver backend {solver.backend!r} needs the "
                    "simulation workspace; set simulation_cache=True"
                )
        elif solver is not None and device.workspace.solver_config != solver:
            # An explicitly requested backend gets its own workspace
            # rather than mutating the process-shared one under other
            # devices; the replacement inherits the old workspace's
            # factorization options and cache bounds so only the backend
            # changes.  config.solver=None leaves a pre-configured
            # workspace (and its backend) untouched.
            device.configure_simulation_cache(
                True, device.workspace.with_solver_config(solver)
            )
        self.executor = make_executor(
            self.config.corner_executor,
            remote_timeout=self.config.remote_timeout,
        )
        #: Distinct worker identities (``pid.nonce`` strings, distinct
        #: even across hosts with colliding pids) seen by the
        #: remote corner fan-out; empty for the serial executor.
        #: Test/benchmark evidence that remote workers really carried
        #: the solves.
        self.observed_worker_pids: set[str] = set()
        self._solver_epoch = 0
        #: Rides this run's design tasks, so each run is its own seed
        #: (and warm device) on a worker, as workers key seeds by content.
        self._run_tag = uuid.uuid4().hex
        if process is None:
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(fab_pad),
                pad=fab_pad,
            )
        self.process = process
        self.terms = objective_terms or device.objective_terms()
        #: Explicit objective overrides apply to every scenario; without
        #: one, off-centre wavelengths ask their own clone for terms
        #: (wavelength-dependent objectives, e.g. the demux).
        self._explicit_terms = objective_terms is not None
        self._terms_by_omega: dict[float, dict] = {}
        self._aggregate_mode, self._aggregate_alpha = parse_aggregate(
            self.config.aggregate
        )
        self.schedule = RelaxationSchedule(
            self.config.relax_epochs, self.config.p_start
        )
        self.sampler = self._build_sampler()
        self.param = self._build_parameterization()
        self._blur = (
            GaussianLithography(
                device.design_shape, device.dl, self.config.mfs_blur_um
            )
            if self.config.mfs_blur_um
            else None
        )
        self.theta = self._initial_theta()

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def _build_parameterization(self):
        cfg = self.config
        if cfg.parameterization == "levelset":
            return LevelSetParameterization(
                self.device.design_shape,
                knot_shape=cfg.knot_shape,
                beta=cfg.levelset_beta,
            )
        return DensityParameterization(
            self.device.design_shape,
            self.device.dl,
            beta=cfg.density_beta,
        )

    def _build_sampler(self):
        cfg = self.config
        kwargs = dict(
            t_delta=cfg.t_delta,
            eta_delta=cfg.eta_delta,
            nominal_weight=cfg.nominal_weight,
        )
        if cfg.sampling in ("random", "axial+random"):
            kwargs["n_random"] = cfg.n_random_corners
            kwargs["n_xi"] = self.process.eole.n_terms
        if cfg.sampling == "axial+worst":
            kwargs["xi_step"] = cfg.worst_xi_step
        base = make_sampling_strategy(cfg.sampling, **kwargs)
        if cfg.wavelengths_um or cfg.temperatures_k:
            return ScenarioFamilySampling(
                base, cfg.wavelengths_um, cfg.temperatures_k
            )
        return base

    def _initial_theta(self) -> np.ndarray:
        if self.config.init == "path":
            pattern = rasterize_segments(
                self.device.design_shape, self.device.dl,
                self.device.init_segments(),
            )
            return theta_from_pattern(self.param, pattern, self.device.dl)
        # Raw (unsmoothed) knot noise: the paper's failure-mode baseline.
        # Smoothing the noise would already be a mild form of
        # initialization engineering.
        return random_theta(self.param, self.rng, scale=1.0, smooth_cells=0.0)

    # ------------------------------------------------------------------ #
    # Pattern decoding                                                   #
    # ------------------------------------------------------------------ #
    def decode(self, theta) -> Tensor:
        """Differentiable pattern, including optional MFS blur control."""
        rho = self.param.pattern(theta)
        if self._blur is not None:
            rho = tanh_projection(self._blur.image(rho), 0.5, beta=8.0)
        return rho

    def decode_array(self, theta: np.ndarray) -> np.ndarray:
        """Hard binary pattern for evaluation."""
        rho = self.param.pattern_array(theta)
        if self._blur is not None:
            rho = (self._blur.image_array(rho) > 0.5).astype(np.float64)
        return rho

    # ------------------------------------------------------------------ #
    # Loss evaluation                                                    #
    # ------------------------------------------------------------------ #
    def _terms_for(self, device: PhotonicDevice) -> dict:
        """Objective terms for one scenario's device clone.

        An explicit ``objective_terms`` override applies to every
        scenario (the ``-eff`` baseline semantics); otherwise off-centre
        clones ask for their own terms — memoized per omega — so
        wavelength-dependent objectives (the demux routes each band to
        a different port) aggregate correctly across the family.
        """
        if device is self.device or self._explicit_terms:
            return self.terms
        key = round(float(device.wavelength_um), 12)
        terms = self._terms_by_omega.get(key)
        if terms is None:
            terms = device.objective_terms()
            self._terms_by_omega[key] = terms
        return terms

    def _ideal_loss(self, rho: Tensor):
        powers = self.device.port_powers_all(rho, 1.0)
        loss = build_loss(self.terms, powers, self.config.dense_objectives)
        return loss, powers

    def _corner_losses(self, rho: Tensor, corners, include_ideal: bool):
        """All scenario losses, one omega group at a time.

        The family is partitioned by omega
        (:func:`~repro.core.sampling.omega_groups`); each group
        fabricates every member (taped, per corner, in this process)
        and gets its powers in one of two ways, the only point where
        executors differ:

        * **in-process** (serial executor): the device's power op.  On
          a block-capable backend (``krylov-block``) the whole group is
          one :meth:`PhotonicDevice.port_powers_corners` call — one
          blocked forward solve and one blocked adjoint solve.  Other
          backends make one call per corner, which keeps every gradient
          bit of the ``direct`` backend; the group's factorizations are
          started up front (:meth:`PhotonicDevice.prefactor`), so they
          overlap on the factor threads.
        * **forward replay** (remote executor): the tape
          cannot cross process boundaries, so
          :func:`~repro.core.executors.fan_out` ships pickle-clean
          ``(alpha_bg, rho_fab array)`` items to workers, which run only
          :meth:`PhotonicDevice.solve_forward_summary`; the summaries
          re-enter the tape through
          :meth:`PhotonicDevice.port_powers_precomputed`, whose VJP
          needs no parent-side solve.  Each group ships its own device
          clone, a distinct task state by content, so workers keep one
          warm workspace per omega.  Every item is a pure function of its
          payload, so dead-worker resubmission leaves LU-backed results
          bitwise unchanged; gradients match the in-process path to
          solver precision.

        While the Eq. (3) relaxation ramp is active (``include_ideal``),
        the ideal-condition system rides the centre-omega group as one
        more system; if no scenario sits at the centre wavelength the
        caller solves it on its own.

        Returns ``(corner_results, ideal_result)`` with ``ideal_result``
        being ``None`` unless requested and hosted.
        """
        in_process = self.executor.supports_shared_memory
        if not in_process:
            self._solver_epoch += 1
        centre = self.device.wavelength_um
        results: list = [None] * len(corners)
        ideal_result = None
        for key, idxs in omega_groups(corners, centre).items():
            device_g = self.device.for_corner(corners[idxs[0]])
            rho_fabs = [self.process.apply(rho, corners[i]) for i in idxs]
            alphas = [
                alpha_of_temperature(corners[i].temperature_k) for i in idxs
            ]
            with_ideal = include_ideal and key == round(float(centre), 12)
            if with_ideal:
                rho_fabs.append(rho)
                alphas.append(1.0)
            if in_process:
                with span("engine.corners", "engine", corners=len(alphas)):
                    if device_g.supports_corner_block:
                        powers_list = device_g.port_powers_corners(
                            rho_fabs, alphas
                        )
                    else:
                        device_g.prefactor([r.data for r in rho_fabs], alphas)
                        powers_list = [
                            device_g.port_powers_all(rho_fab, alpha)
                            for rho_fab, alpha in zip(rho_fabs, alphas)
                        ]
            else:
                task = _CornerForwardTask(
                    device_g, tracing_active(), self._run_tag
                )
                summaries, workers = fan_out(
                    self.executor,
                    task,
                    [
                        (
                            self._solver_epoch,
                            alpha,
                            np.asarray(fab.data, dtype=np.float64),
                        )
                        for alpha, fab in zip(alphas, rho_fabs)
                    ],
                    device_g.workspace,
                    "engine.dispatch",
                    corners=len(alphas),
                )
                self.observed_worker_pids |= workers
                powers_list = [
                    device_g.port_powers_precomputed(
                        rho_fab, summary, alpha_bg=alpha
                    )
                    for summary, rho_fab, alpha in zip(
                        summaries, rho_fabs, alphas
                    )
                ]
            terms = self._terms_for(device_g)
            dense = self.config.dense_objectives
            group_results = [
                (build_loss(terms, powers, dense), powers)
                for powers in powers_list
            ]
            if with_ideal:
                ideal_result = group_results.pop()
            for i, result in zip(idxs, group_results):
                results[i] = result
        return results, ideal_result

    def loss(
        self, theta_t: Tensor, iteration: int
    ) -> tuple[Tensor, dict[str, dict[str, float]], int]:
        """Eq. (3) blended loss, nominal-condition powers, corner count.

        With scenario axes configured (``config.wavelengths_um`` /
        ``temperatures_k``) the sampled fab corners are crossed into a
        scenario family, partitioned by omega so each group shares one
        blocked solve (or one per-omega fan-out), and reduced by
        ``config.aggregate`` — weighted mean, tempered soft-max worst
        case, or CVaR tail expectation
        (:func:`repro.core.objective.aggregate_losses`).

        Corner losses come from one loop, :meth:`_corner_losses`: the
        serial executor computes each omega group's powers through the
        device's power op, the remote executor hands the
        group's forward solves to workers through
        :func:`~repro.core.executors.fan_out`.  Either way losses are
        reduced serially in the sampler's corner order, so the result
        does not depend on the worker count.  The returned corner count
        is the number the loss actually averaged over (0 when
        ``use_fab`` is off).
        """
        with span("engine.loss", "engine", iteration=iteration):
            return self._loss_impl(theta_t, iteration)

    def _loss_impl(self, theta_t, iteration):
        if self.device.workspace is not None:
            # New iteration, new pattern: refresh the Krylov
            # preconditioner anchors so the nominal corner — the first
            # permittivity factorized below — is what every other corner
            # of this iteration recycles.  No-op for direct backends.
            self.device.workspace.begin_solver_epoch()
        rho = self.decode(theta_t)
        nominal_powers: dict[str, dict[str, float]] | None = None

        if not self.config.use_fab:
            total, powers = self._ideal_loss(rho)
            nominal_powers = {
                d: {k: v.item() for k, v in powers[d].items()}
                for d in powers
            }
            return total, nominal_powers, 0

        worst_finder = None
        if self.sampler.wants_worst_finder:
            worst_finder = self._make_worst_finder(rho)
        corners = self.sampler.corners(iteration, self.rng, worst_finder)
        if not corners:
            raise ValueError(
                f"sampling strategy {self.sampler.name!r} "
                f"({type(self.sampler).__name__}) produced no corners at "
                f"iteration {iteration} with use_fab=True; the Eq. (3) "
                "fabrication loss needs at least one corner to average over"
            )

        p = self.schedule.p(iteration)
        corner_results, ideal_result = self._corner_losses(
            rho, corners, include_ideal=p < 1.0
        )
        losses = []
        weights = []
        for corner, (loss_c, powers_c) in zip(corners, corner_results):
            losses.append(loss_c)
            weights.append(corner.weight)
            if nominal_powers is None and corner.is_nominal():
                nominal_powers = {
                    d: {k: v.item() for k, v in powers_c[d].items()}
                    for d in powers_c
                }
        # "mean" replays the historical per-corner op sequence inside
        # aggregate_losses, keeping single-omega LU-backed runs bitwise.
        fab_loss = aggregate_losses(
            losses, weights, self._aggregate_mode, self._aggregate_alpha
        )

        if p < 1.0:
            if ideal_result is not None:
                ideal_loss, ideal_powers = ideal_result
            else:
                ideal_loss, ideal_powers = self._ideal_loss(rho)
            total = fab_loss * p + ideal_loss * (1.0 - p)
            if nominal_powers is None:
                nominal_powers = {
                    d: {k: v.item() for k, v in ideal_powers[d].items()}
                    for d in ideal_powers
                }
        else:
            total = fab_loss
        if nominal_powers is None:
            # Sampler produced no nominal corner: take the first corner's
            # powers as the snapshot (already computed in the fan-out).
            _, powers_c = corner_results[0]
            nominal_powers = {
                d: {k: v.item() for k, v in powers_c[d].items()}
                for d in powers_c
            }
        return total, nominal_powers, len(corners)

    # ------------------------------------------------------------------ #
    # Worst-corner search (Sec. III-E)                                   #
    # ------------------------------------------------------------------ #
    def _make_worst_finder(self, rho: Tensor):
        rho_const = rho.detach()

        def finder(t_step: float, xi_step: float) -> VariationCorner:
            t_var = Tensor(np.array(300.0), requires_grad=True)
            xi_var = Tensor(
                np.zeros(self.process.eole.n_terms), requires_grad=True
            )
            probe = VariationCorner("worst-probe")
            rho_fab = self.process.apply(
                rho_const, probe, temperature=t_var, xi=xi_var
            )
            powers = self.device.port_powers_all(rho_fab, 1.0)
            loss = build_loss(self.terms, powers, self.config.dense_objectives)
            loss.backward()
            t_grad = 0.0 if t_var.grad is None else float(t_var.grad)
            xi_grad = (
                np.zeros(self.process.eole.n_terms)
                if xi_var.grad is None
                else xi_var.grad
            )
            # One signed-gradient ascent step on the loss (FGSM-style).
            t_worst = 300.0 + t_step * np.sign(t_grad)
            xi_worst = xi_step * np.sign(xi_grad)
            return VariationCorner(
                "worst",
                litho="nominal",
                temperature_k=float(t_worst),
                xi=xi_worst,
            )

        return finder

    def close(self) -> None:
        """Release executor workers (no-op for the serial backend).

        The executor re-creates its pool lazily, so an optimizer remains
        usable after ``close()``.
        """
        self.executor.shutdown()

    # ------------------------------------------------------------------ #
    # Main loop                                                          #
    # ------------------------------------------------------------------ #
    def run(
        self,
        iterations: int | None = None,
        callback: Callable[[IterationRecord], None] | None = None,
        resume: "DesignCheckpoint | str | Path | None" = None,
        stop_event: "threading.Event | None" = None,
    ) -> OptimizationResult:
        """Optimize and return the trajectory + final design.

        Parameters
        ----------
        iterations:
            Override of ``config.iterations``.
        callback:
            Called with each :class:`IterationRecord` (for live logging).
        resume:
            A :class:`~repro.core.checkpoint.DesignCheckpoint` (or a
            path to one) to continue from.  The checkpoint's config
            digest and device name must match this optimizer
            (:meth:`DesignCheckpoint.verify_against` raises otherwise);
            theta, Adam moments, RNG stream, sampler state, solver
            epoch, and the recorded history are restored, and for
            LU-backed solver backends the continued trajectory is
            bitwise-identical to the uninterrupted one.
        stop_event:
            Cross-thread soft-stop seam: setting this
            :class:`threading.Event` (from any thread) acts like a
            first SIGINT — the loop finishes the current iteration,
            checkpoints (when checkpointing is on), and returns with
            ``result.interrupted`` True.  This is how ``repro serve``
            stops jobs running on worker threads, where signal handlers
            cannot be installed.

        With ``config.checkpoint_dir`` set, the loop writes crash-safe
        checkpoints every ``config.checkpoint_every`` iterations (plus a
        final one), SIGINT/SIGTERM finish the current iteration and
        checkpoint before returning (``result.interrupted`` is then
        True), and a fully-dead remote fleet checkpoints, logs the
        per-worker failures, and degrades to serial execution instead of
        aborting the run (degradation happens with or without
        checkpointing).
        """
        n_iter = iterations if iterations is not None else self.config.iterations
        adam = Adam(lr=self.config.effective_lr)
        theta = np.array(self.theta, dtype=np.float64)
        history: list[IterationRecord] = []
        start = 0
        if resume is not None:
            if not isinstance(resume, DesignCheckpoint):
                resume = DesignCheckpoint.load(resume)
            theta, start = self._apply_checkpoint(resume, adam, history)
        manager = None
        if self.config.checkpoint_dir is not None:
            manager = CheckpointManager(
                self.config.checkpoint_dir,
                every=self.config.checkpoint_every,
                keep=self.config.checkpoint_keep,
            )
        session = None
        if self.config.trace_dir is not None:
            session = TraceSession(
                self.config.trace_dir, self.config.trace_formats()
            )

        try:
            return self._run_loop(
                start, n_iter, adam, theta, history, callback, manager,
                session, stop_event,
            )
        finally:
            if session is not None:
                session.close()
            # Pools are re-created lazily, so releasing workers here
            # keeps the optimizer reusable while never leaking threads.
            self.executor.shutdown()

    # ------------------------------------------------------------------ #
    # Checkpoint seam                                                    #
    # ------------------------------------------------------------------ #
    def _make_checkpoint(
        self,
        next_iteration: int,
        theta: np.ndarray,
        adam: Adam,
        history: "list[IterationRecord]",
    ) -> DesignCheckpoint:
        """Snapshot the loop state *between* iterations.

        Called with the post-step theta/Adam/RNG of the iteration just
        completed, so a resume replays the remaining iterations exactly
        as the uninterrupted run would have executed them.
        """
        return DesignCheckpoint(
            config_digest=config_digest(self.config, self.device.name),
            device_name=self.device.name,
            next_iteration=int(next_iteration),
            theta=np.array(theta, dtype=np.float64),
            adam_state=adam.state_dict(),
            rng_state=get_rng_state(self.rng),
            sampler_state=self.sampler.state_dict(),
            solver_epoch=self._solver_epoch,
            history=list(history),
        )

    def _apply_checkpoint(
        self,
        ckpt: DesignCheckpoint,
        adam: Adam,
        history: "list[IterationRecord]",
    ) -> "tuple[np.ndarray, int]":
        """Restore a verified checkpoint into the live loop state."""
        ckpt.verify_against(self.config, self.device.name)
        adam.load_state_dict(ckpt.adam_state)
        set_rng_state(self.rng, ckpt.rng_state)
        self.sampler.load_state_dict(ckpt.sampler_state)
        self._solver_epoch = int(ckpt.solver_epoch)
        history.extend(ckpt.history)
        log.info(
            "resuming %s from iteration %d (%d iterations recorded)",
            self.device.name,
            ckpt.next_iteration,
            len(ckpt.history),
        )
        return np.array(ckpt.theta, dtype=np.float64), int(ckpt.next_iteration)

    def _degrade_to_serial(self, exc: RemoteFleetDead) -> None:
        """Swap the dead remote fleet for in-process serial execution."""
        for failure in exc.worker_failures or ["no failure detail recorded"]:
            log.error("remote worker failure: %s", failure)
        log.warning(
            "the entire remote fleet is dead; degrading to the serial "
            "executor to finish the run in-process (items lost "
            "mid-iteration: %s)",
            exc.missing or "none",
        )
        try:
            self.executor.shutdown()
        except Exception:
            pass  # the fleet is already gone; nothing worth keeping
        self.executor = SerialExecutor()

    def _run_loop(self, start, n_iter, adam, theta, history, callback,
                  manager, session=None, stop_event=None):
        final_loss = history[-1].loss if history else float("nan")
        interrupted = False
        with GracefulShutdown(
            enabled=manager is not None, external_stop=stop_event
        ) as stop:
            it = start
            while it < n_iter:
                # Snapshot the RNG before the iteration: if the remote
                # fleet dies mid-fan-out, the retried iteration must
                # replay the same corner draws, not advance the stream
                # twice — and a degradation checkpoint must describe the
                # state *before* the lost iteration.
                rng_before = get_rng_state(self.rng)
                theta_t = Tensor(theta, requires_grad=True)
                with span("engine.iteration", "engine", iteration=it):
                    try:
                        loss, nominal_powers, n_corners = self.loss(
                            theta_t, it
                        )
                    except RemoteFleetDead as exc:
                        set_rng_state(self.rng, rng_before)
                        if manager is not None:
                            manager.save(
                                self._make_checkpoint(
                                    it, theta, adam, history
                                )
                            )
                        self._degrade_to_serial(exc)
                        continue  # retry the same iteration in-process
                    with span("engine.backward", "engine"):
                        loss.backward()
                    grad = (
                        theta_t.grad
                        if theta_t.grad is not None
                        else np.zeros_like(theta)
                    )
                    record = IterationRecord(
                        iteration=it,
                        loss=loss.item(),
                        p=self.schedule.p(it) if self.config.use_fab else 0.0,
                        n_corners=n_corners,
                        fom=self.device.fom(nominal_powers),
                        powers=nominal_powers,
                    )
                    history.append(record)
                    if callback is not None:
                        callback(record)
                    theta = adam.step(theta, grad)
                final_loss = record.loss
                it += 1
                if session is not None:
                    session.record(
                        "iteration", it - 1,
                        extra={"loss": record.loss, "fom": record.fom},
                        workspace=self.device.workspace,
                    )
                if self.config.metrics_every and it % self.config.metrics_every == 0:
                    snap = get_metrics().snapshot(self.device.workspace)
                    log.info(
                        "metrics @ iteration %d: counters=%s gauges=%s",
                        it - 1, snap["counters"], snap["gauges"],
                    )
                if manager is not None and (
                    stop.requested
                    or it == n_iter
                    or manager.should_save(it)
                ):
                    manager.save(
                        self._make_checkpoint(it, theta, adam, history)
                    )
                if stop.requested:
                    interrupted = True
                    log.warning(
                        "graceful shutdown: stopped after iteration %d "
                        "of %d; resume with the checkpoint in %s",
                        it - 1,
                        n_iter,
                        manager.directory if manager is not None else "?",
                    )
                    break

        self.theta = theta
        return OptimizationResult(
            theta=theta,
            pattern=self.decode_array(theta),
            history=history,
            config=self.config,
            device_name=self.device.name,
            final_loss=final_loss,
            interrupted=interrupted,
        )
