"""Device base class: geometry + simulation + differentiable port powers.

A :class:`PhotonicDevice` ties together

* a :class:`~repro.fdfd.grid.SimGrid` and a rectangular *design region*,
* the fixed *background* waveguide geometry feeding the region,
* per-direction port sets (source, transmission, reflection, crosstalk),
* a cached *calibration run* per (direction, temperature scale) providing
  the input power ``P_in`` and the incident field for reflection
  subtraction, and
* the one in-process autodiff custom op ``rho_scaled -> normalized port
  powers`` (any number of systems, every direction stacked) whose VJP
  solves every adjoint system in the same stacked way.

Subclasses define geometry, ports, initialization paths and the device
objective (Eq. 2 terms).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.ops import as_tensor, custom_vjp_with_residuals
from repro.fdfd.adjoint import PortInfrastructure, PortPowerProblem, PortSpec
from repro.fdfd.grid import SimGrid
from repro.fdfd.solver import FdfdFields, HelmholtzSolver
from repro.fdfd.workspace import SimulationWorkspace, shared_workspace
from repro.obs.trace import span
from repro.params.initializers import PathSegment
from repro.utils.constants import EPS_SI, EPS_VOID, omega_from_wavelength

__all__ = [
    "PhotonicDevice",
    "DirectionSolveSummary",
    "ForwardSolveSummary",
]


def _pattern_digest(arr: np.ndarray) -> bytes:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(arr).view(np.uint8).data)
    return digest.digest()


@dataclass
class DirectionSolveSummary:
    """Pickle-clean by-products of one direction's forward FDFD solve.

    Produced in a worker process by
    :meth:`PhotonicDevice.solve_forward_summary` and consumed in the
    parent by :meth:`PhotonicDevice.port_powers_precomputed`: everything
    the taped adjoint needs without re-running (or shipping) the solve.

    The adjoint seam works because the adjoint right-hand side of a
    port-power objective always lies in the span of the per-port monitor
    functionals ``w_j`` (see :meth:`PortPowerProblem.adjoint_source`):
    ``v = sum_j g_j * coeff_j * w_j`` with ``coeff_j = gamma_j
    conj(c_j) / P_in`` known at forward time.  The worker therefore
    solves the *adjoint basis* ``y_j = A^{-T} w_j`` — cheap triangular
    sweeps against the forward factorization, one matrix-RHS call where
    the backend allows — and the parent's VJP is pure linear algebra:
    ``lam = sum_j g_j coeff_j y_j``.
    """

    direction: str
    #: Normalized port powers in :meth:`PhotonicDevice.port_names` order.
    powers: np.ndarray
    #: Per-port complex adjoint coefficients ``gamma_j conj(c_j) / P_in``.
    adjoint_coeffs: np.ndarray = field(repr=False)
    #: Flattened complex forward field ``ez``.
    ez: np.ndarray = field(repr=False)
    #: ``(n_cells, n_ports)`` adjoint-basis columns ``A^{-T} w_j``.
    adjoint_basis: np.ndarray = field(repr=False)


@dataclass
class ForwardSolveSummary:
    """One corner's forward-solve summary: all directions + provenance.

    ``rho_digest`` fingerprints the scaled design occupancy the worker
    solved, so :meth:`PhotonicDevice.port_powers_precomputed` can refuse
    a summary that does not belong to the tensor it is being attached to
    (a silent mismatch would produce plausible-looking wrong gradients).
    """

    directions: list[DirectionSolveSummary]
    alpha_bg: float
    rho_digest: bytes = field(repr=False)


class PhotonicDevice:
    """Base class for benchmark devices.

    Parameters
    ----------
    grid:
        Simulation window.
    design_slice:
        ``(slice_x, slice_y)`` of the design region in grid cells.
    wavelength_um:
        Operating free-space wavelength.
    eps_solid:
        Nominal solid permittivity (silicon at 300 K by default).

    Subclass contract
    -----------------
    * ``directions`` — propagation directions to simulate, e.g.
      ``("fwd",)`` or ``("fwd", "bwd")``.
    * :meth:`background_occupancy` — binary full-grid occupancy of the
      fixed waveguides, **zero inside the design window**.
    * :meth:`monitor_ports` / :meth:`source_port` — per direction, all
      outside the design window (a port crossing it is refused).
    * :meth:`calibration_occupancy` / :meth:`calibration_monitor` — the
      straight-guide geometry and monitor measuring launched power.
    * :meth:`init_segments` — light-concentrated initialization paths in
      design-region coordinates.
    * :meth:`objective_terms` — the Eq. (2) objective description.
    * :meth:`fom` — scalar figure of merit from per-direction powers
      (higher is NOT always better; see ``fom_lower_is_better``).
    """

    name: str = "device"
    directions: tuple[str, ...] = ("fwd",)
    #: True when the FoM is a cost (the isolator's contrast ratio).
    fom_lower_is_better: bool = False
    #: Memoized per-wavelength clones kept per device (LRU; each holds
    #: full-grid calibration fields, so the bound matters).
    _MAX_WAVELENGTH_CLONES: int = 32
    #: Calibration runs kept per device (LRU).  Each entry pins a
    #: full-grid incident field, and evaluation workloads mint one
    #: (direction, alpha) key per Monte-Carlo temperature draw — without
    #: a bound a long-lived device (e.g. one held in a worker's seed
    #: cache) would accumulate them without limit.
    _MAX_CALIBRATIONS: int = 32

    def __init__(
        self,
        grid: SimGrid,
        design_slice: tuple[slice, slice],
        wavelength_um: float = 1.55,
        eps_solid: float = EPS_SI,
        simulation_cache: bool = True,
        workspace: SimulationWorkspace | None = None,
    ):
        self.grid = grid
        self.design_slice = design_slice
        self.wavelength_um = float(wavelength_um)
        self.omega = omega_from_wavelength(wavelength_um)
        self.eps_solid = float(eps_solid)
        sx, sy = design_slice
        self.design_shape = (
            len(range(*sx.indices(grid.nx))),
            len(range(*sy.indices(grid.ny))),
        )
        self._background = None
        self._calibration_cache: dict[tuple[str, float], tuple] = {}
        #: Guards the calibration cache's LRU bookkeeping only — any
        #: caller may share one device across threads and hit the same
        #: (direction, alpha) key concurrently, and the recency touch /
        #: eviction are mutations.  (A ``repro worker`` runs the tasks
        #: of one seeded device one at a time.)  Solves happen outside
        #: the lock (a cold race duplicates work benignly; entries are
        #: content-addressed).
        self._calibration_lock = threading.Lock()
        self._wavelength_clones: dict[float, "PhotonicDevice"] = {}
        self.configure_simulation_cache(simulation_cache, workspace)

    def configure_simulation_cache(
        self,
        enabled: bool,
        workspace: SimulationWorkspace | None = None,
    ) -> None:
        """Switch the simulation caching layer on or off.

        Parameters
        ----------
        enabled:
            When True (the default at construction) the device routes
            every solve through a
            :class:`~repro.fdfd.workspace.SimulationWorkspace` and
            memoizes the per-direction port infrastructure.  When False
            every solve rebuilds operators, modes and monitors — the
            seed behaviour, kept as the cold reference of the cache
            correctness tests.  The optimizer runs the device as
            configured and refuses an iterative backend on a cold one.
        workspace:
            Explicit workspace to use when ``enabled``; defaults to the
            process-shared one.  Ignored when ``enabled`` is False.

        Both paths produce bit-identical powers and gradients (asserted
        by the test suite); only the wall time differs.
        """
        self.simulation_cache = bool(enabled)
        if self.simulation_cache:
            self.workspace = workspace or shared_workspace()
        else:
            self.workspace = None
        with self._calibration_lock:
            self._calibration_cache.clear()
        self._wavelength_clones.clear()

    # Wavelength clones and calibration runs hold full-grid fields and
    # are cheap for workers to re-solve (content-addressed, bit-stable);
    # dropping them keeps pickled devices (remote task state) lean.  The
    # calibration lock is not picklable and is re-created on unpickle.
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_wavelength_clones"] = {}
        state["_calibration_cache"] = {}
        state.pop("_calibration_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._calibration_lock = threading.Lock()

    def at_wavelength(self, wavelength_um: float) -> "PhotonicDevice":
        """A memoized clone of this device at another wavelength.

        The clone shares the geometry, background occupancy and the
        simulation workspace (so slab-mode and assembly caches persist
        across wavelengths and repeated sweeps) but keeps its own
        ``omega`` and calibration cache — a second sweep over the same
        wavelengths reuses every calibration run instead of re-solving
        cold.
        """
        key = round(float(wavelength_um), 12)
        if key == round(self.wavelength_um, 12):
            return self
        clone = self._wavelength_clones.get(key)
        if clone is None:
            cls = type(self)
            clone = cls.__new__(cls)
            clone.__dict__.update(self.__dict__)
            clone.wavelength_um = float(wavelength_um)
            clone.omega = omega_from_wavelength(wavelength_um)
            clone._calibration_cache = {}
            clone._calibration_lock = threading.Lock()
            clone._wavelength_clones = {}
            self._wavelength_clones[key] = clone
            # Bounded LRU: each clone pins full-grid calibration fields,
            # so a long-lived device sweeping many wavelengths must not
            # accumulate them without limit.
            while len(self._wavelength_clones) > self._MAX_WAVELENGTH_CLONES:
                self._wavelength_clones.pop(next(iter(self._wavelength_clones)))
        else:
            # Refresh recency (plain dicts preserve insertion order).
            self._wavelength_clones[key] = self._wavelength_clones.pop(key)
        return clone

    def for_corner(self, corner) -> "PhotonicDevice":
        """The device clone a variation corner should be simulated on.

        A corner with no wavelength axis (``wavelength_um=None``) runs
        on this device unchanged — the path every pre-scenario corner
        takes — while scenario-family members route to their
        :meth:`at_wavelength` clone (which is ``self`` again when the
        pinned wavelength equals this device's centre wavelength).
        """
        if corner.wavelength_um is None:
            return self
        return self.at_wavelength(corner.wavelength_um)

    # ------------------------------------------------------------------ #
    # Geometry interface (subclasses)                                    #
    # ------------------------------------------------------------------ #
    def background_occupancy(self) -> np.ndarray:
        """Binary occupancy of fixed waveguides; zero in design window."""
        raise NotImplementedError

    def monitor_ports(self, direction: str) -> Sequence[PortSpec]:
        raise NotImplementedError

    def source_port(self, direction: str) -> PortSpec:
        raise NotImplementedError

    def calibration_occupancy(self, direction: str) -> np.ndarray:
        """Full-grid occupancy of the calibration (norm-run) geometry."""
        raise NotImplementedError

    def calibration_monitor(self, direction: str) -> PortSpec:
        """Port measuring the launched power in the calibration run."""
        raise NotImplementedError

    def init_segments(self) -> list[PathSegment]:
        """Light-concentrated initialization paths (design coords, um)."""
        raise NotImplementedError

    def objective_terms(self) -> dict:
        """Objective description consumed by :mod:`repro.core.objective`."""
        raise NotImplementedError

    def fom(self, powers: Mapping[str, Mapping[str, float]]) -> float:
        """Scalar figure of merit from per-direction port powers."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Derived geometry helpers                                           #
    # ------------------------------------------------------------------ #
    @property
    def dl(self) -> float:
        return self.grid.dl

    def cached_background(self) -> np.ndarray:
        if self._background is None:
            bg = np.asarray(self.background_occupancy(), dtype=np.float64)
            if bg.shape != self.grid.shape:
                raise ValueError("background occupancy has wrong shape")
            if np.any(bg[self.design_slice] != 0):
                raise ValueError(
                    "background occupancy must be zero inside the design "
                    "window"
                )
            self._background = bg
        return self._background

    def litho_context(self, pad: int) -> np.ndarray:
        """Context tile for the fabrication model.

        The background occupancy in a ``pad``-cell collar around the
        design region, on the padded design tile (zero in the centre).
        """
        bg = self.cached_background()
        sx, sy = self.design_slice
        nx, ny = self.design_shape
        tile = np.zeros((nx + 2 * pad, ny + 2 * pad))
        # Global-grid window the tile covers, clipped to the grid.
        gx0, gy0 = sx.start - pad, sy.start - pad
        cx0, cy0 = max(gx0, 0), max(gy0, 0)
        cx1 = min(gx0 + tile.shape[0], self.grid.nx)
        cy1 = min(gy0 + tile.shape[1], self.grid.ny)
        tile[cx0 - gx0 : cx1 - gx0, cy0 - gy0 : cy1 - gy0] = bg[cx0:cx1, cy0:cy1]
        tile[pad : pad + nx, pad : pad + ny] = 0.0
        return tile

    def eps_from_occupancy(self, occupancy: np.ndarray) -> np.ndarray:
        """Permittivity map from a (possibly alpha-scaled) occupancy."""
        return EPS_VOID + (self.eps_solid - EPS_VOID) * occupancy

    # ------------------------------------------------------------------ #
    # Calibration (normalization runs)                                   #
    # ------------------------------------------------------------------ #
    def _problem(self, direction: str) -> PortPowerProblem:
        return PortPowerProblem(
            self.grid,
            self.omega,
            list(self.monitor_ports(direction)),
            self.source_port(direction),
            workspace=self.workspace,
        )

    def _line_in_design(self, plane: int, span: slice, axis: str) -> bool:
        """Whether a port line intersects the design window."""
        sx, sy = self.design_slice
        x_range = range(*sx.indices(self.grid.nx))
        y_range = range(*sy.indices(self.grid.ny))
        if axis == "x":
            trans = range(*span.indices(self.grid.ny))
            return plane in x_range and bool(set(trans) & set(y_range))
        trans = range(*span.indices(self.grid.nx))
        return plane in y_range and bool(set(trans) & set(x_range))

    def _port_infrastructure(
        self, problem: PortPowerProblem, alpha_bg: float
    ) -> PortInfrastructure:
        """Precomputed monitors + source for one (direction, alpha_bg).

        Port cross-sections lie outside the design window, so the
        environment permittivity (scaled background, empty design
        region) determines their modes for *every* design pattern.  A
        device that places a port across its design window is refused.
        """
        for port in (problem.source_port, *problem.ports):
            plane, span = problem.port_plane_and_span(port)
            if self._line_in_design(plane, span, port.axis):
                raise ValueError(
                    f"{self.name}: port {port.name!r} crosses the design "
                    "window; port modes must not depend on the design "
                    "pattern"
                )
        eps_env = self.eps_from_occupancy(self.cached_background() * alpha_bg)
        return problem.prepare(eps_env)

    def _calibration_eps(self, direction: str, alpha_bg: float) -> np.ndarray:
        """Permittivity of one calibration run's straight-guide system.

        The guide must not vary along x, on every backend: that is what
        lets ``krylov-block`` solve it by fast diagonalization
        (:meth:`FdfdAssembly.solve_x_invariant`).  Anything else is
        refused, naming the device and the direction.
        """
        calib_occ = np.asarray(
            self.calibration_occupancy(direction), dtype=np.float64
        )
        if np.any(calib_occ != calib_occ[:1]):
            raise ValueError(
                f"{self.name}: the {direction!r} calibration geometry varies "
                "along x; a calibration run must be a straight guide along x"
            )
        return self.eps_from_occupancy(calib_occ * alpha_bg)

    def _calibration_key(self, direction: str, alpha_bg: float) -> tuple:
        return (direction, round(float(alpha_bg), 9))

    def _calibration_entry(self, direction: str, alpha_bg: float) -> tuple:
        """The cached ``((problem, p_in, incident), infra)`` for one key.

        Thread-safe: the LRU bookkeeping (recency touch, insertion,
        eviction) happens under :attr:`_calibration_lock`, while the
        calibration solve itself runs outside it — concurrent cold
        misses on one key duplicate the solve benignly (entries are
        content-addressed; last writer wins with identical bits).
        Returning the whole entry also spares callers a second cache
        read that a concurrent eviction could invalidate.

        The solve is SuperLU under ``direct`` and fast diagonalization
        (:meth:`FdfdAssembly.solve_x_invariant`) under ``krylov-block``,
        which factorizes nothing and leaves the anchor pool to design
        systems.
        """
        key = self._calibration_key(direction, alpha_bg)
        with self._calibration_lock:
            entry = self._calibration_cache.get(key)
            if entry is not None:
                # Refresh recency (plain dicts preserve insertion order).
                self._calibration_cache.pop(key)
                self._calibration_cache[key] = entry
                return entry
        problem = self._problem(direction)
        eps_calib = self._calibration_eps(direction, alpha_bg)
        calib_port = self.calibration_monitor(direction)
        calib_problem = PortPowerProblem(
            self.grid,
            self.omega,
            [calib_port],
            self.source_port(direction),
            workspace=self.workspace,
        )
        method = "separable" if self.supports_corner_block else "lu"
        with span("device.calibrate", "device", direction=direction,
                  method=method):
            if method == "lu":
                sol = calib_problem.solve(eps_calib)
            else:
                # No factorization and no anchor: the straight guide is
                # solved exactly by fast diagonalization.
                assembly = self.workspace.assembly(
                    self.grid, self.omega, calib_problem.pml
                )
                calib_infra = calib_problem.prepare(eps_calib)
                ez = assembly.solve_x_invariant(
                    eps_calib,
                    (-1j * self.omega) * calib_infra.source_jz.ravel(),
                )
                fields = FdfdFields(
                    ez.reshape(self.grid.shape),
                    assembly.ops["dxf"],
                    assembly.ops["dyf"],
                    self.omega,
                )
                sol = calib_problem.measure(None, fields, None, calib_infra)
        p_in = sol.raw_powers[calib_port.name]
        if p_in <= 0:
            raise RuntimeError(
                f"calibration run for {self.name}/{direction} launched "
                "no power — check the port geometry"
            )
        incident = sol.fields.ez
        infra = (
            self._port_infrastructure(problem, alpha_bg)
            if self.simulation_cache
            else None
        )
        entry = ((problem, p_in, incident), infra)
        with self._calibration_lock:
            self._calibration_cache[key] = entry
            # Bounded LRU: each entry pins a full-grid incident field.
            while len(self._calibration_cache) > self._MAX_CALIBRATIONS:
                self._calibration_cache.pop(
                    next(iter(self._calibration_cache))
                )
        return entry

    def calibration(
        self, direction: str, alpha_bg: float = 1.0
    ) -> tuple[PortPowerProblem, float, np.ndarray]:
        """Problem, input power and incident field for one direction.

        ``alpha_bg`` is the temperature occupancy scale applied to the
        background (cached per rounded value, since temperature corners
        shift the launched power slightly).
        """
        return self._calibration_entry(direction, alpha_bg)[0]

    def _calibration_with_infra(
        self, direction: str, alpha_bg: float
    ) -> tuple[PortPowerProblem, float, np.ndarray, PortInfrastructure]:
        """Calibration plus port infrastructure for one (direction, alpha).

        With the simulation cache off the infrastructure is rebuilt on
        every call instead of being memoized with the calibration.
        """
        (problem, p_in, incident), infra = self._calibration_entry(
            direction, alpha_bg
        )
        if infra is None:
            infra = self._port_infrastructure(problem, alpha_bg)
        return problem, p_in, incident, infra

    # ------------------------------------------------------------------ #
    # Differentiable port powers: one custom op                          #
    # ------------------------------------------------------------------ #
    def port_names(self, direction: str) -> list[str]:
        return [p.name for p in self.monitor_ports(direction)]

    @property
    def supports_corner_block(self) -> bool:
        """Whether the workspace backend can solve corner blocks.

        A property, matching
        :attr:`SimulationWorkspace.supports_corner_block`, so truthiness
        checks behave the same on both layers.
        """
        return self.workspace is not None and self.workspace.supports_corner_block

    def _system_eps(self, pattern: np.ndarray, alpha_bg: float) -> np.ndarray:
        """Permittivity of one design system.

        The background scaled by ``alpha_bg`` with the scaled design
        occupancy ``pattern`` pasted into the design window: the one
        builder the power op, :meth:`solve_forward_summary` and
        :meth:`prefactor` share, so a prefactored system is by
        construction the one the solve looks up.
        """
        occ = self.cached_background() * alpha_bg
        occ[self.design_slice] = pattern
        return self.eps_from_occupancy(occ)

    def prefactor(
        self, patterns: Sequence[np.ndarray], alpha_bgs: Sequence[float]
    ) -> None:
        """Start the factorizations a power-op call over these systems needs.

        Covers the calibration runs not cached yet for every (direction,
        ``alpha_bg``) plus each pattern's own system, in the order the
        solves will consume them; see
        :meth:`SimulationWorkspace.prefactor`.  A no-op on a cold device
        and under ``krylov-block``.
        """
        workspace = self.workspace
        if workspace is None or workspace.supports_corner_block:
            return
        eps_list = []
        for pattern, alpha in zip(patterns, alpha_bgs):
            alpha = float(alpha)
            for direction in self.directions:
                key = self._calibration_key(direction, alpha)
                with self._calibration_lock:
                    cached = key in self._calibration_cache
                if not cached:
                    eps_list.append(self._calibration_eps(direction, alpha))
            eps_list.append(
                self._system_eps(np.asarray(pattern, dtype=np.float64), alpha)
            )
        workspace.prefactor(workspace.assembly(self.grid, self.omega), eps_list)

    def _columns(
        self, alpha_bgs: Sequence[float], directions: Sequence[str]
    ) -> "tuple[list[tuple], np.ndarray]":
        """The right-hand-side columns of ``len(alpha_bgs)`` systems.

        One column per ``(system, direction)``, system-major and
        direction-minor; each entry is ``(system, problem, p_in,
        incident, infra, port names)``.  Systems sharing a temperature
        share one calibration.  Returns the entries and their stacked
        ``(n, len(entries))`` source block.
        """
        calibrations = {}
        columns = []
        for system, alpha in enumerate(alpha_bgs):
            for direction in directions:
                key = (direction, alpha)
                if key not in calibrations:
                    calibrations[key] = self._calibration_with_infra(
                        direction, alpha
                    )
                columns.append(
                    (system, *calibrations[key], self.port_names(direction))
                )
        sources = np.stack(
            [
                (-1j * self.omega)
                * infra.source_jz.ravel().astype(np.complex128)
                for *_head, infra, _names in columns
            ],
            axis=1,
        )
        return columns, sources

    def _solve_columns(self, eps_list: Sequence[np.ndarray], pml):
        """Open one solve over the systems ``eps_list``.

        Returns ``(solve, dxf, dyf)``, where ``solve(rhs, system_of,
        trans="N")`` solves column ``j`` of an ``(n, k)`` block against
        system ``system_of[j]`` (an explicit column-to-system map, so
        the forward sources and the adjoint basis of one system can
        carry different column counts):

        * block-capable backends (``krylov-block``) solve the whole block
          through :meth:`SimulationWorkspace.begin_corner_block` — single
          matrix-RHS preconditioner sweeps for every system at once;
        * every other backend solves each system's columns with one
          :meth:`HelmholtzSolver.solve_many` — under ``direct`` one
          SuperLU matrix-RHS call per system, bitwise equal to solving
          each column alone.
        """
        grid, omega, workspace = self.grid, self.omega, self.workspace
        if self.supports_corner_block:
            assembly = workspace.assembly(grid, omega, pml)
            block = workspace.begin_corner_block(assembly, eps_list)

            def solve(rhs, system_of, trans="N"):
                return block.solve_block(rhs, system_of, trans=trans)

            return solve, assembly.ops["dxf"], assembly.ops["dyf"]
        solvers = [
            HelmholtzSolver(grid, eps, omega, pml, workspace=workspace)
            for eps in eps_list
        ]

        def solve(rhs, system_of, trans="N"):
            out = np.empty(rhs.shape, dtype=np.complex128)
            for system, solver in enumerate(solvers):
                cols = np.flatnonzero(system_of == system)
                out[:, cols] = solver.solve_many(rhs[:, cols], trans=trans)
            return out

        return solve, solvers[0].dxf, solvers[0].dyf

    def _measure(self, columns, ez_block, dxf, dyf) -> list:
        """One :class:`PortPowerSolution` per solved column."""
        shape, omega = self.grid.shape, self.omega
        return [
            problem.measure(
                None,
                FdfdFields(
                    np.ascontiguousarray(ez).reshape(shape), dxf, dyf, omega
                ),
                incident,
                infra,
            )
            for ez, (_, problem, _p_in, incident, infra, _names) in zip(
                ez_block.T, columns
            )
        ]

    def _power_op(
        self, alpha_bgs: tuple[float, ...], directions: tuple[str, ...]
    ) -> Callable[..., Tensor]:
        """The in-process power op: ``k`` design occupancies -> powers.

        One custom op over ``k >= 1`` systems, one per entry of
        ``alpha_bgs`` and one design-occupancy input each.  The forward
        pass stacks every system's per-direction sources into one
        ``(n, k * len(directions))`` block (:meth:`_columns`) and the
        VJP stacks every adjoint system into one transposed block; both
        go through one :meth:`_solve_columns` solve.  The output is the
        system-major, direction-minor vector :meth:`_split_powers`
        unflattens.
        """
        columns, sources = self._columns(alpha_bgs, directions)
        system_of = np.array([col[0] for col in columns], dtype=np.intp)
        grid = self.grid
        dslice = self.design_slice
        contrast = self.eps_solid - EPS_VOID
        pml = columns[0][1].pml

        def forward(*occ_designs):
            eps_list = [
                self._system_eps(occ_design, alpha)
                for alpha, occ_design in zip(alpha_bgs, occ_designs)
            ]
            solve, dxf, dyf = self._solve_columns(eps_list, pml)
            solutions = self._measure(
                columns, solve(sources, system_of), dxf, dyf
            )
            powers = [
                sol.raw_powers[n] / p_in
                for (_, _problem, p_in, _inc, _infra, names), sol in zip(
                    columns, solutions
                )
                for n in names
            ]
            return np.array(powers, dtype=np.float64), (solve, solutions)

        def vjp(g, out, residuals, *occ_designs):
            solve, solutions = residuals
            adjoint_cols = []
            offset = 0
            for (_, problem, p_in, _inc, _infra, names), sol in zip(
                columns, solutions
            ):
                cotangents = {
                    n: float(g[offset + i]) for i, n in enumerate(names)
                }
                offset += len(names)
                adjoint_cols.append(
                    problem.adjoint_source(sol, cotangents, input_power=p_in)
                )
            lam_block = solve(
                np.stack(adjoint_cols, axis=1), system_of, trans="T"
            )
            grads = [np.zeros(grid.shape) for _ in occ_designs]
            for j, ((system, problem, *_rest), sol) in enumerate(
                zip(columns, solutions)
            ):
                grads[system] += problem.grad_from_adjoint(
                    sol, np.ascontiguousarray(lam_block[:, j])
                )
            return tuple(grad[dslice] * contrast for grad in grads)

        return custom_vjp_with_residuals(
            forward, vjp, name=f"{self.name}:powers"
        )

    def _split_powers(
        self, vector, n_systems: int, directions: Sequence[str], wrap
    ) -> list[dict]:
        """Unflatten the system-major power vector :meth:`_power_op` emits.

        Shared by the taped (``wrap`` = identity on Tensor entries) and
        no-tape (``wrap`` = float) callers so the layouts cannot drift
        apart.
        """
        result = []
        offset = 0
        for _ in range(n_systems):
            per_direction = {}
            for direction in directions:
                names = self.port_names(direction)
                per_direction[direction] = {
                    name: wrap(vector[offset + i])
                    for i, name in enumerate(names)
                }
                offset += len(names)
            result.append(per_direction)
        return result

    def _powers(
        self,
        patterns: Sequence,
        alpha_bgs: Sequence[float],
        directions: Sequence[str],
        taped: bool,
    ) -> list[dict]:
        """Validate inputs, run one :meth:`_power_op` call, unflatten."""
        if len(patterns) != len(alpha_bgs):
            raise ValueError(
                f"{len(patterns)} patterns for {len(alpha_bgs)} "
                "temperature scales"
            )
        if not len(patterns):
            raise ValueError("port powers need at least one design pattern")
        for direction in directions:
            if direction not in self.directions:
                raise ValueError(
                    f"unknown direction {direction!r}; have {self.directions}"
                )
        inputs = [
            as_tensor(p) if taped else np.asarray(p, dtype=np.float64)
            for p in patterns
        ]
        for x in inputs:
            if tuple(x.shape) != self.design_shape:
                raise ValueError(
                    f"design shape {x.shape} != {self.design_shape}"
                )
        op = self._power_op(
            tuple(float(a) for a in alpha_bgs), tuple(directions)
        )
        vector = op(*inputs)
        if taped:
            return self._split_powers(
                vector, len(inputs), directions, lambda entry: entry
            )
        return self._split_powers(vector.data, len(inputs), directions, float)

    def port_powers(
        self, rho_scaled, direction: str, alpha_bg: float = 1.0
    ) -> dict[str, Tensor]:
        """Normalized port powers of a design pattern (differentiable).

        Parameters
        ----------
        rho_scaled:
            Scaled design occupancy (design-region shape), i.e. the
            fabrication chain's output ``rho_tilde'`` in ``[0, alpha_t]``.
        direction:
            One of :attr:`directions`.
        alpha_bg:
            Temperature scale for the *background* (held constant on the
            tape; the design's own temperature dependence arrives through
            ``rho_scaled``).
        """
        return self._powers([rho_scaled], [alpha_bg], [direction], True)[0][
            direction
        ]

    def port_powers_all(
        self, rho_scaled, alpha_bg: float = 1.0
    ) -> dict[str, dict[str, Tensor]]:
        """Normalized port powers for *every* direction (differentiable).

        All directions' sources share this permittivity and are stacked
        into one solve, and on the backward pass all adjoint systems
        into one transposed solve — under ``direct`` the isolator's
        fwd+bwd pair costs two SuperLU calls instead of four, with
        bitwise the per-direction results of :meth:`port_powers`.
        """
        return self.port_powers_corners([rho_scaled], [alpha_bg])[0]

    def port_powers_corners(
        self, rho_scaled_list: Sequence, alpha_bgs: Sequence[float]
    ) -> list[dict[str, dict[str, Tensor]]]:
        """Differentiable powers for a whole corner family (one op call).

        Parameters
        ----------
        rho_scaled_list:
            One scaled design occupancy per corner (the fabrication
            chain's per-corner outputs).
        alpha_bgs:
            Matching background temperature scales.

        Returns one ``{direction: {port: Tensor}}`` dict per corner.  On
        a block-capable backend all corners share a single blocked
        forward solve and, on the backward pass, a single blocked
        adjoint solve; other backends solve each corner with its own
        factorization (see :meth:`_power_op`).
        """
        return self._powers(rho_scaled_list, alpha_bgs, self.directions, True)

    def port_powers_array_corners(
        self, patterns: Sequence[np.ndarray], alpha_bgs: Sequence[float]
    ) -> list[dict[str, dict[str, float]]]:
        """Plain numpy corner-family powers (evaluation path, no tape).

        The no-tape counterpart of :meth:`port_powers_corners`: every
        Monte-Carlo sample's forward system joins one op call.
        """
        return self._powers(patterns, alpha_bgs, self.directions, False)

    # ------------------------------------------------------------------ #
    # Forward-replay seam (remote corner fan-out)                        #
    # ------------------------------------------------------------------ #
    def solve_forward_summary(
        self, rho_scaled: np.ndarray, alpha_bg: float = 1.0
    ) -> ForwardSolveSummary:
        """Forward solves only, packaged as a pickle-clean summary.

        The worker half of the remote corner fan-out: run in a
        worker process on a plain numpy ``rho_scaled`` (the fabrication
        chain's output — the chain itself stays taped in the parent),
        it makes one stacked forward solve over every direction's source
        and one stacked transposed solve for the adjoint basis
        ``y_j = A^{-T} w_j`` of every port in every direction — both
        through the power op's :meth:`_solve_columns` — and returns
        arrays and scalars only: no tape, no LU objects, no workspace.
        Feed the result to :meth:`port_powers_precomputed` in the parent
        to rebuild the differentiable port powers without re-solving
        anything.
        """
        rho = np.asarray(rho_scaled, dtype=np.float64)
        if rho.shape != self.design_shape:
            raise ValueError(
                f"design shape {rho.shape} != {self.design_shape}"
            )
        alpha_bg = float(alpha_bg)
        columns, sources = self._columns((alpha_bg,), self.directions)
        solve, dxf, dyf = self._solve_columns(
            [self._system_eps(rho, alpha_bg)], columns[0][1].pml
        )
        solutions = self._measure(
            columns,
            solve(sources, np.zeros(len(columns), dtype=np.intp)),
            dxf, dyf,
        )
        weights = np.stack(
            [
                np.asarray(
                    sol.monitors[n].weight_vector(), dtype=np.complex128
                )
                for (*_head, names), sol in zip(columns, solutions)
                for n in names
            ],
            axis=1,
        )
        basis = solve(
            weights, np.zeros(weights.shape[1], dtype=np.intp), trans="T"
        )
        summaries: list[DirectionSolveSummary] = []
        offset = 0
        for direction, (_, _problem, p_in, _inc, _infra, names), sol in zip(
            self.directions, columns, solutions
        ):
            summaries.append(
                DirectionSolveSummary(
                    direction=direction,
                    powers=np.array(
                        [sol.raw_powers[n] / p_in for n in names],
                        dtype=np.float64,
                    ),
                    adjoint_coeffs=np.array(
                        [
                            sol.monitors[n].power_factor
                            * np.conj(sol.amplitudes[n])
                            / p_in
                            for n in names
                        ],
                        dtype=np.complex128,
                    ),
                    ez=sol.fields.ez.ravel().copy(),
                    adjoint_basis=np.ascontiguousarray(
                        basis[:, offset : offset + len(names)]
                    ),
                )
            )
            offset += len(names)
        return ForwardSolveSummary(
            directions=summaries,
            alpha_bg=alpha_bg,
            rho_digest=_pattern_digest(rho),
        )

    def port_powers_precomputed(
        self,
        rho_scaled,
        summary: ForwardSolveSummary,
        alpha_bg: float | None = None,
    ) -> dict[str, dict[str, Tensor]]:
        """Differentiable port powers from precomputed fields (no solve).

        The parent half of the remote corner fan-out: the forward
        pass simply returns the worker-computed powers, while the VJP
        assembles the adjoint field from the summary's basis columns —
        ``lam = sum_j g_j coeff_j y_j`` per direction, then the standard
        ``-2 omega^2 Re(lam * ez)`` permittivity gradient — so the taped
        backward pass runs entirely in the parent with zero FDFD solves.
        Gradients match the in-process path to solver precision (the
        adjoint is recombined from per-port solves instead of one
        aggregated solve).

        ``rho_scaled`` must be the exact tensor whose ``.data`` the
        worker solved; a digest mismatch raises.  Pass ``alpha_bg`` to
        additionally pin the background temperature scale the summary
        was solved at — the same design array solved at a different
        corner temperature is a different system, and the digest alone
        cannot tell them apart.
        """
        if alpha_bg is not None and float(alpha_bg) != summary.alpha_bg:
            raise ValueError(
                f"precomputed solve summary was produced at "
                f"alpha_bg={summary.alpha_bg!r}, not the expected "
                f"{float(alpha_bg)!r}"
            )
        rho_scaled = as_tensor(rho_scaled)
        if tuple(rho_scaled.shape) != self.design_shape:
            raise ValueError(
                f"design shape {rho_scaled.shape} != {self.design_shape}"
            )
        if [s.direction for s in summary.directions] != list(self.directions):
            raise ValueError(
                f"summary directions "
                f"{[s.direction for s in summary.directions]} != device "
                f"directions {list(self.directions)}"
            )
        expected = [len(self.port_names(d)) for d in self.directions]
        for s, n_ports in zip(summary.directions, expected):
            if s.powers.size != n_ports or s.adjoint_basis.shape[1] != n_ports:
                raise ValueError(
                    f"summary for direction {s.direction!r} carries "
                    f"{s.powers.size} powers / "
                    f"{s.adjoint_basis.shape[1]} basis columns for "
                    f"{n_ports} ports"
                )
        dslice = self.design_slice
        contrast = self.eps_solid - EPS_VOID
        omega = self.omega
        grid_shape = self.grid.shape
        digest = summary.rho_digest
        directions = summary.directions

        def forward(occ_design):
            if _pattern_digest(occ_design) != digest:
                raise ValueError(
                    "precomputed solve summary does not match this design "
                    "occupancy — it was produced for a different pattern"
                )
            return np.concatenate([s.powers for s in directions]), None

        def vjp(g, out, residuals, occ_design):
            grad = np.zeros(grid_shape, dtype=np.float64)
            offset = 0
            for s in directions:
                k = s.powers.size
                lam = s.adjoint_basis @ (
                    np.asarray(g[offset : offset + k], dtype=np.float64)
                    * s.adjoint_coeffs
                )
                grad += (-2.0 * omega**2 * np.real(lam * s.ez)).reshape(
                    grid_shape
                )
                offset += k
            return (grad[dslice] * contrast,)

        op = custom_vjp_with_residuals(
            forward, vjp, name=f"{self.name}:precomputed:powers"
        )
        return self._split_powers(
            op(rho_scaled), 1, self.directions, lambda entry: entry
        )[0]

    def port_powers_array(
        self, rho_scaled: np.ndarray, direction: str, alpha_bg: float = 1.0
    ) -> dict[str, float]:
        """Plain numpy port powers of one direction (no tape)."""
        return self._powers([rho_scaled], [alpha_bg], [direction], False)[0][
            direction
        ]

    def port_powers_array_all(
        self, rho_scaled: np.ndarray, alpha_bg: float = 1.0
    ) -> dict[str, dict[str, float]]:
        """Plain numpy port powers for *every* direction (no tape).

        The evaluation-path counterpart of :meth:`port_powers_all`.
        """
        return self.port_powers_array_corners([rho_scaled], [alpha_bg])[0]
