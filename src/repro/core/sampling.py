"""Variation-sampling strategies (paper Sec. III-E, Fig. 6a).

Each strategy decides which :class:`~repro.fab.corners.VariationCorner`\\ s
the optimizer simulates at a given iteration:

===================  ======  ====================================================
strategy             #sims   description
===================  ======  ====================================================
``nominal``          1       no variation awareness
``single-sided``     4       nominal + one max corner per axis (O(N))
``axial``            7       nominal + min & max per axis (O(2N), symmetric)
``exhaustive``       27      full corner sweep (O(3^N)) — the unscalable baseline
``random``           1+k     nominal + k Monte-Carlo corners per iteration
``axial+random``     7+k     axial plus k random corners
``axial+worst``      7+1     axial plus a one-step gradient-ascent worst corner
===================  ======  ====================================================

The worst corner implements the paper's SAM/FGSM-inspired move: ascend the
loss one signed-gradient step in the (temperature, EOLE-coefficient)
variation space, then include the resulting corner in the training set.

Scenario families
-----------------
:func:`scenario_family` lifts any fabrication corner list into the full
operating-condition cross product (wavelength band × temperature set ×
fab corners), and :class:`ScenarioFamilySampling` wraps an existing
strategy so the engine sees the family as an ordinary corner list.  With
no wavelength/temperature axes configured both are exact identities, so
single-``omega`` runs stay byte-identical to a pre-scenario build.
:func:`omega_groups` is the one partition of such a family by omega,
shared by the design loop and the Monte-Carlo evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.fab.corners import CornerSet, VariationCorner

__all__ = [
    "SamplingStrategy",
    "NominalSampling",
    "SingleSidedAxialSampling",
    "AxialSampling",
    "ExhaustiveSampling",
    "RandomSampling",
    "AxialPlusRandomSampling",
    "AxialPlusWorstSampling",
    "ScenarioFamilySampling",
    "scenario_family",
    "omega_groups",
    "make_sampling_strategy",
    "SAMPLING_STRATEGIES",
]


def scenario_family(
    fab_corners: Sequence[VariationCorner],
    wavelengths_um: Sequence[float] | None = None,
    temperatures_k: Sequence[float] | None = None,
) -> list[VariationCorner]:
    """Cross a fab-corner list with wavelength / temperature axes.

    Each scenario pins one wavelength, one operating temperature and one
    fabrication corner.  The temperature axis composes with the fab
    corner's own thermal excursion as an *offset around the 300 K
    nominal* (``temperature_k = corner.temperature_k + (T - 300)``), so
    an ``axial`` temp-max corner evaluated at an operating point of
    320 K lands at 320 + t_delta — the physically meaningful worst case.
    Scenario weights inherit the fab corner's weight: operating
    conditions are equally likely, fabrication corners keep their
    distribution-mode weighting.

    Either axis may be ``None``/empty, meaning "leave that axis alone";
    with both absent the input list is returned unchanged (same
    objects), which is what keeps single-wavelength runs bitwise
    identical to the pre-scenario code path.
    """
    lams = list(wavelengths_um) if wavelengths_um else [None]
    temps = list(temperatures_k) if temperatures_k else [None]
    if lams == [None] and temps == [None]:
        return list(fab_corners)
    family: list[VariationCorner] = []
    for lam in lams:
        for temp in temps:
            for c in fab_corners:
                parts = []
                kwargs: dict = {}
                if lam is not None:
                    parts.append(f"lam={float(lam):g}um")
                    kwargs["wavelength_um"] = float(lam)
                if temp is not None:
                    parts.append(f"T={float(temp):g}K")
                    kwargs["temperature_k"] = c.temperature_k + (
                        float(temp) - 300.0
                    )
                name = c.name + "@" + ",".join(parts)
                family.append(dataclasses.replace(c, name=name, **kwargs))
    return family


def omega_groups(
    corners: Sequence[VariationCorner], centre_wavelength_um: float
) -> "dict[float, list[int]]":
    """Order-preserving partition of a scenario family by omega.

    Keyed like the workspace caches (``round(wavelength, 12)``) so every
    member of a group shares its Laplacian, assembly, and — under
    ``krylov-block`` — one blocked solve.  Corners without a wavelength
    axis group under ``centre_wavelength_um``, which makes this the
    identity (one group) for plain fab-corner lists.
    """
    groups: dict[float, list[int]] = {}
    for i, corner in enumerate(corners):
        lam = (
            corner.wavelength_um
            if corner.wavelength_um is not None
            else centre_wavelength_um
        )
        groups.setdefault(round(float(lam), 12), []).append(i)
    return groups


class WorstCornerFinder(Protocol):
    """Callback the engine provides to locate the worst corner.

    Called as ``finder(t_step, xi_step) -> VariationCorner``.
    """

    def __call__(self, t_step: float, xi_step: float) -> VariationCorner: ...


class SamplingStrategy:
    """Base class; subclasses override :meth:`corners`."""

    name = "base"

    def __init__(
        self,
        t_delta: float = 30.0,
        eta_delta: float = 0.03,
        nominal_weight: float = 1.0,
    ):
        self.t_delta = float(t_delta)
        self.eta_delta = float(eta_delta)
        self.nominal_weight = float(nominal_weight)

    def corners(
        self,
        iteration: int,
        rng: np.random.Generator,
        worst_finder: WorstCornerFinder | None = None,
    ) -> list[VariationCorner]:
        raise NotImplementedError

    def simulations_per_iteration(self) -> int:
        """Corner count (the paper's cost metric; 2 EM solves per corner
        per direction)."""
        return len(self.corners(0, np.random.default_rng(0)))

    @property
    def wants_worst_finder(self) -> bool:
        """True if :meth:`corners` uses the engine's worst-corner ascent.

        The engine builds the (costly) gradient-ascent callback only
        when the active strategy — possibly through a
        :class:`ScenarioFamilySampling` wrapper — asks for it.
        """
        return False

    # ------------------------------------------------------------------ #
    # Checkpoint seam                                                    #
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Mutable sampler state for checkpoint/resume.

        Every built-in strategy is a pure function of ``(iteration,
        rng)`` — their randomness lives in the engine's generator, whose
        bit-generator state the checkpoint captures separately — so the
        default is empty.  Strategies that accumulate state across
        iterations (e.g. an adaptive corner bank) override this pair so
        a resumed run continues their stream instead of restarting it.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (no-op by default)."""
        if state:
            raise ValueError(
                f"sampling strategy {self.name!r} was checkpointed with "
                f"state keys {sorted(state)} but {type(self).__name__} "
                "declares no mutable state; the checkpoint came from an "
                "incompatible strategy implementation"
            )


class NominalSampling(SamplingStrategy):
    """No variation awareness (the "Nominal only" bar of Fig. 6a)."""

    name = "nominal"

    def corners(self, iteration, rng, worst_finder=None):
        return list(CornerSet.nominal_only())


class SingleSidedAxialSampling(SamplingStrategy):
    """One-sided axial corners; asymmetric, performs poorly (Fig. 6a)."""

    name = "single-sided"

    def corners(self, iteration, rng, worst_finder=None):
        return list(CornerSet.single_sided_axial(self.t_delta, self.eta_delta))


class AxialSampling(SamplingStrategy):
    """Double-sided axial corners (nominal + 6)."""

    name = "axial"

    def corners(self, iteration, rng, worst_finder=None):
        return list(
            CornerSet.axial(
                self.t_delta,
                self.eta_delta,
                nominal_weight=self.nominal_weight,
            )
        )


class ExhaustiveSampling(SamplingStrategy):
    """Full 3^3 corner sweep — exponential cost and attention distraction."""

    name = "exhaustive"

    def corners(self, iteration, rng, worst_finder=None):
        return list(CornerSet.exhaustive(self.t_delta, self.eta_delta))


class RandomSampling(SamplingStrategy):
    """Nominal + k fresh Monte-Carlo corners each iteration."""

    name = "random"

    def __init__(self, n_random: int = 2, n_xi: int = 0, **kwargs):
        super().__init__(**kwargs)
        if n_random < 1:
            raise ValueError("n_random must be >= 1")
        self.n_random = int(n_random)
        self.n_xi = int(n_xi)

    def corners(self, iteration, rng, worst_finder=None):
        out = list(CornerSet.nominal_only())
        out.extend(
            CornerSet.random(
                rng, self.n_random, self.t_delta, self.eta_delta, self.n_xi
            )
        )
        return out


class AxialPlusRandomSampling(RandomSampling):
    """Axial corners + k random corners (same budget as axial+worst)."""

    name = "axial+random"

    def corners(self, iteration, rng, worst_finder=None):
        out = list(CornerSet.axial(self.t_delta, self.eta_delta))
        out.extend(
            CornerSet.random(
                rng, self.n_random, self.t_delta, self.eta_delta, self.n_xi
            )
        )
        return out


class AxialPlusWorstSampling(AxialSampling):
    """Axial corners + the one-step gradient-ascent worst corner.

    This is BOSON-1's default (the best bar of Fig. 6a).  When no
    ``worst_finder`` is available (e.g. during pure evaluation) it
    degrades gracefully to plain axial sampling.
    """

    name = "axial+worst"

    def __init__(self, t_step: float | None = None, xi_step: float = 1.0, **kwargs):
        super().__init__(**kwargs)
        self.t_step = float(t_step) if t_step is not None else self.t_delta
        self.xi_step = float(xi_step)

    def corners(self, iteration, rng, worst_finder=None):
        out = list(
            CornerSet.axial(
                self.t_delta,
                self.eta_delta,
                nominal_weight=self.nominal_weight,
            )
        )
        if worst_finder is not None:
            out.append(worst_finder(self.t_step, self.xi_step))
        return out

    @property
    def wants_worst_finder(self) -> bool:
        return True


class ScenarioFamilySampling(SamplingStrategy):
    """Lift a base strategy's fab corners into a scenario family.

    Wraps any :class:`SamplingStrategy` and crosses its per-iteration
    corner list with the configured wavelength and temperature axes via
    :func:`scenario_family`.  State, the worst-finder request, and the
    per-iteration randomness all pass straight through to the base
    strategy, so checkpoints taken under a wrapped sampler restore the
    base sampler's stream exactly.
    """

    def __init__(
        self,
        base: SamplingStrategy,
        wavelengths_um: Sequence[float] | None = None,
        temperatures_k: Sequence[float] | None = None,
    ):
        super().__init__(
            t_delta=base.t_delta,
            eta_delta=base.eta_delta,
            nominal_weight=base.nominal_weight,
        )
        self.base = base
        self.wavelengths_um = (
            tuple(float(w) for w in wavelengths_um) if wavelengths_um else None
        )
        self.temperatures_k = (
            tuple(float(t) for t in temperatures_k) if temperatures_k else None
        )
        self.name = f"scenario({base.name})"

    def corners(self, iteration, rng, worst_finder=None):
        fab = self.base.corners(iteration, rng, worst_finder)
        return scenario_family(fab, self.wavelengths_um, self.temperatures_k)

    @property
    def wants_worst_finder(self) -> bool:
        return self.base.wants_worst_finder

    def state_dict(self) -> dict:
        return self.base.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.base.load_state_dict(state)


SAMPLING_STRATEGIES: dict[str, Callable[..., SamplingStrategy]] = {
    "nominal": NominalSampling,
    "single-sided": SingleSidedAxialSampling,
    "axial": AxialSampling,
    "exhaustive": ExhaustiveSampling,
    "random": RandomSampling,
    "axial+random": AxialPlusRandomSampling,
    "axial+worst": AxialPlusWorstSampling,
}


def make_sampling_strategy(name: str, **kwargs) -> SamplingStrategy:
    """Instantiate a sampling strategy by its Fig. 6(a) name."""
    try:
        cls = SAMPLING_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown sampling strategy {name!r}; "
            f"have {sorted(SAMPLING_STRATEGIES)}"
        ) from None
    return cls(**kwargs)
