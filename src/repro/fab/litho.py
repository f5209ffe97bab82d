"""Partially coherent lithography aerial-image models.

The paper (ref. [22], ILILT) uses a Hopkins-diffraction lithography model;
the mathematically equivalent structure implemented here is the Abbe / sum
of coherent systems (SOCS) decomposition

    I(x) = sum_s w_s | (h_s (*) m)(x) |^2 ,

where each coherent kernel ``h_s`` is the band-limited pupil shifted by one
source point of the partially coherent illuminator.  Defocus enters as a
quadratic pupil phase and exposure dose as an intensity scale.  This is the
mechanism that *restricts fabricable patterns to a low-dimensional smooth
subspace* (paper Fig. 2a): spatial frequencies beyond ``(1 + sigma) NA /
lambda`` are physically unprintable.

All images are computed on a periodic FFT tile; callers embed the design
in a padded context tile (see :class:`repro.fab.process.FabricationProcess`)
so wrap-around never touches the design region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.ops import custom_vjp

__all__ = ["LithoCorner", "AbbeLithography", "GaussianLithography"]

#: Canonical corner names used across the framework.
LITHO_CORNER_NAMES = ("min", "nominal", "max")


@dataclass(frozen=True)
class LithoCorner:
    """One lithography process corner (defocus + dose).

    The paper sweeps three corners ``{l_min, l_norm, l_max}`` caused by
    defocus/dose drift; ``min`` under-exposes at defocus (features shrink),
    ``max`` over-exposes at defocus (features bloat).
    """

    name: str
    defocus_um: float
    dose: float


def default_litho_corners(
    defocus_um: float = 0.08, dose_delta: float = 0.05
) -> dict[str, LithoCorner]:
    """The three-corner set used throughout the reproduction."""
    return {
        "min": LithoCorner("min", defocus_um, 1.0 - dose_delta),
        "nominal": LithoCorner("nominal", 0.0, 1.0),
        "max": LithoCorner("max", defocus_um, 1.0 + dose_delta),
    }


class AbbeLithography:
    """Abbe-summed partially coherent imaging on a fixed grid.

    Parameters
    ----------
    shape:
        Tile shape ``(Nx, Ny)`` the model images (including context pad).
    dl:
        Grid pitch in um.
    wavelength_um:
        Illumination wavelength (193-nm ArF by default).
    na:
        Projection numerical aperture; the coherent cutoff is ``na /
        wavelength`` cycles/um.
    sigma:
        Partial-coherence factor (source radius / pupil radius).
    n_source:
        Number of source points: 1 (coherent) or 5 (centre + 4 axial
        points at radius ``sigma * na / wavelength``).
    defocus_um:
        Defocus distance; adds the Fresnel pupil phase
        ``exp(i pi lambda z |f|^2)``.
    dose:
        Exposure dose; scales the aerial intensity.

    Notes
    -----
    The model is energy-normalized: a clear field images to intensity
    ``dose`` exactly, so an etch threshold of 0.5 splits bright from dark
    at nominal dose.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        dl: float,
        wavelength_um: float = 0.193,
        na: float = 0.65,
        sigma: float = 0.5,
        n_source: int = 5,
        defocus_um: float = 0.0,
        dose: float = 1.0,
    ):
        if n_source not in (1, 5):
            raise ValueError(f"n_source must be 1 or 5, got {n_source}")
        if not 0.0 <= sigma < 1.0:
            raise ValueError(f"sigma must be in [0, 1), got {sigma}")
        if dose <= 0:
            raise ValueError(f"dose must be positive, got {dose}")
        self.shape = tuple(shape)
        self.dl = float(dl)
        self.wavelength_um = float(wavelength_um)
        self.na = float(na)
        self.sigma = float(sigma)
        self.n_source = int(n_source)
        self.defocus_um = float(defocus_um)
        self.dose = float(dose)
        self._kernels, self._weights = self._build_kernels()
        self._op = custom_vjp(self._forward, self._vjp, name="abbe_litho")

    # The custom-vjp op is a local closure; rebuild it after unpickling
    # (remote evaluation ships the fabrication chain to workers).
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_op", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._op = custom_vjp(self._forward, self._vjp, name="abbe_litho")

    # ------------------------------------------------------------------ #
    @property
    def cutoff_cycles_per_um(self) -> float:
        """Maximum printable spatial frequency, ``(1 + sigma) NA / lambda``."""
        return (1.0 + self.sigma) * self.na / self.wavelength_um

    def min_printable_period_um(self) -> float:
        """Smallest grating period that survives imaging."""
        return 1.0 / self.cutoff_cycles_per_um

    def _build_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequency-domain coherent kernels ``H_s(f)`` and weights."""
        nx, ny = self.shape
        fx = np.fft.fftfreq(nx, d=self.dl)
        fy = np.fft.fftfreq(ny, d=self.dl)
        FX, FY = np.meshgrid(fx, fy, indexing="ij")

        f_pupil = self.na / self.wavelength_um
        if self.n_source == 1:
            source_points = [(0.0, 0.0)]
        else:
            r = self.sigma * f_pupil
            source_points = [
                (0.0, 0.0),
                (r, 0.0),
                (-r, 0.0),
                (0.0, r),
                (0.0, -r),
            ]
        kernels = []
        for (sx, sy) in source_points:
            # Shifted pupil: frequencies the system passes for this
            # illumination direction.
            f2 = (FX + sx) ** 2 + (FY + sy) ** 2
            pupil = (f2 <= f_pupil**2).astype(np.complex128)
            if self.defocus_um != 0.0:
                phase = np.pi * self.wavelength_um * self.defocus_um * f2
                pupil = pupil * np.exp(1j * phase)
            kernels.append(pupil)
        weights = np.full(len(kernels), 1.0 / len(kernels))
        return np.stack(kernels), weights

    # ------------------------------------------------------------------ #
    def _forward(self, mask: np.ndarray) -> np.ndarray:
        mask_hat = np.fft.fft2(mask)
        intensity = np.zeros(self.shape, dtype=np.float64)
        for h, w in zip(self._kernels, self._weights):
            amp = np.fft.ifft2(mask_hat * h)
            intensity += w * np.abs(amp) ** 2
        return self.dose * intensity

    def _vjp(self, g: np.ndarray, out: np.ndarray, mask: np.ndarray):
        mask_hat = np.fft.fft2(mask)
        grad = np.zeros(self.shape, dtype=np.float64)
        for h, w in zip(self._kernels, self._weights):
            amp = np.fft.ifft2(mask_hat * h)
            # d<g, I>/dm = sum_s 2 w Re[ T_s^*(g * a_s) ],
            # T_s^* = F^{-1} conj(H_s) F.
            grad += (
                2.0
                * w
                * np.real(np.fft.ifft2(np.conj(h) * np.fft.fft2(g * amp)))
            )
        return (self.dose * grad,)

    # ------------------------------------------------------------------ #
    def image_array(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image of a raw numpy mask (no autodiff)."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != self.shape:
            raise ValueError(f"mask shape {mask.shape} != model {self.shape}")
        return self._forward(mask)

    def image(self, mask: Tensor) -> Tensor:
        """Differentiable aerial image of a mask tensor."""
        if tuple(mask.shape) != self.shape:
            raise ValueError(f"mask shape {mask.shape} != model {self.shape}")
        return self._op(mask)


class GaussianLithography:
    """Gaussian-blur proxy lithography.

    The paper's related-work section describes prior methods that
    approximate the fab with a low-pass blur [12]; this class implements
    that proxy (used by the ``Density-M`` / ``LS-M`` MFS-control baselines)
    with the same interface as :class:`AbbeLithography`.
    """

    def __init__(self, shape: tuple[int, int], dl: float, blur_radius_um: float):
        if blur_radius_um <= 0:
            raise ValueError("blur radius must be positive")
        self.shape = tuple(shape)
        self.dl = float(dl)
        self.blur_radius_um = float(blur_radius_um)
        self._kernel_hat = self._build_kernel_hat()
        self._op = custom_vjp(self._forward, self._vjp, name="gauss_litho")

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_op", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._op = custom_vjp(self._forward, self._vjp, name="gauss_litho")

    def _build_kernel_hat(self) -> np.ndarray:
        nx, ny = self.shape
        x = np.fft.fftfreq(nx, d=1.0) * nx * self.dl
        y = np.fft.fftfreq(ny, d=1.0) * ny * self.dl
        X, Y = np.meshgrid(x, y, indexing="ij")
        r2 = X**2 + Y**2
        s = self.blur_radius_um
        kernel = np.exp(-r2 / (2 * s**2))
        kernel /= kernel.sum()
        return np.fft.fft2(kernel)

    def _forward(self, mask: np.ndarray) -> np.ndarray:
        return np.real(np.fft.ifft2(np.fft.fft2(mask) * self._kernel_hat))

    def _vjp(self, g: np.ndarray, out: np.ndarray, mask: np.ndarray):
        # The Gaussian kernel is symmetric: correlation == convolution.
        return (
            np.real(np.fft.ifft2(np.fft.fft2(g) * np.conj(self._kernel_hat))),
        )

    def image_array(self, mask: np.ndarray) -> np.ndarray:
        """Blurred image of a raw numpy mask (no autodiff)."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != self.shape:
            raise ValueError(f"mask shape {mask.shape} != model {self.shape}")
        return self._forward(mask)

    def image(self, mask: Tensor) -> Tensor:
        """Differentiable blurred image."""
        if tuple(mask.shape) != self.shape:
            raise ValueError(f"mask shape {mask.shape} != model {self.shape}")
        return self._op(mask)
