"""Spatially varying etch-threshold field via EOLE.

The paper models across-wafer etch variation as a Gaussian random field
eta(x, y) and discretizes it with the Expansion Optimal Linear Estimation
(EOLE) method of Schevenels, Lazarov & Sigmund (CMAME 2011, ref. [15]):

    delta_eta(x) = sum_{j=1}^{M} xi_j / sqrt(lam_j) * phi_j^T C(x_obs, x)

with ``xi_j ~ N(0, 1)`` i.i.d., where ``(lam_j, phi_j)`` eigenpairs of the
covariance matrix between ``M`` observation points.  A handful of terms
capture most of the field variance when the correlation length is a
sizeable fraction of the design region — which is what makes the paper's
*linear-cost* adaptive sampling possible (the variation space is
``xi in R^M``, not one random value per pixel).
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.ops import as_tensor, custom_vjp

__all__ = ["EOLEField"]


class EOLEField:
    """A Gaussian random field generator on a fixed 2-D grid.

    Parameters
    ----------
    shape:
        Field shape ``(Nx, Ny)`` in grid cells.
    dl:
        Cell pitch in um.
    std:
        Point standard deviation of the field.
    correlation_length_um:
        Gaussian covariance length ``l`` in
        ``C(r) = std^2 exp(-|r|^2 / l^2)``.
    n_points_per_axis:
        Observation-grid resolution; ``M = n^2`` observation points.
    n_terms:
        Number of retained eigen-terms (defaults to all ``M``).
    """

    def __init__(
        self,
        shape: tuple[int, int],
        dl: float,
        std: float = 0.03,
        correlation_length_um: float = 1.0,
        n_points_per_axis: int = 3,
        n_terms: int | None = None,
    ):
        if std < 0:
            raise ValueError("std must be non-negative")
        if correlation_length_um <= 0:
            raise ValueError("correlation length must be positive")
        if n_points_per_axis < 1:
            raise ValueError("need at least one observation point per axis")
        self.shape = tuple(shape)
        self.dl = float(dl)
        self.std = float(std)
        self.correlation_length_um = float(correlation_length_um)
        self.n_points_per_axis = int(n_points_per_axis)
        self.basis = self._build_basis(n_terms)
        self._op = custom_vjp(self._forward, self._vjp, name="eole_field")

    # The custom-vjp op is a local closure; rebuild it after unpickling
    # (remote evaluation ships the fabrication chain to workers).
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_op", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._op = custom_vjp(self._forward, self._vjp, name="eole_field")

    # ------------------------------------------------------------------ #
    @property
    def n_terms(self) -> int:
        """Number of independent standard-normal coefficients."""
        return self.basis.shape[0]

    def _covariance(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """Gaussian covariance between two point sets (rows are points)."""
        d2 = (
            (pa[:, None, 0] - pb[None, :, 0]) ** 2
            + (pa[:, None, 1] - pb[None, :, 1]) ** 2
        )
        return self.std**2 * np.exp(-d2 / self.correlation_length_um**2)

    def _build_basis(self, n_terms: int | None) -> np.ndarray:
        nx, ny = self.shape
        lx, ly = nx * self.dl, ny * self.dl
        n = self.n_points_per_axis
        # Observation points on a centred coarse grid.
        ox = (np.arange(n) + 0.5) * lx / n
        oy = (np.arange(n) + 0.5) * ly / n
        OX, OY = np.meshgrid(ox, oy, indexing="ij")
        obs = np.stack([OX.ravel(), OY.ravel()], axis=1)

        cov_obs = self._covariance(obs, obs)
        # Small jitter guards the Cholesky-free eigensolve against
        # numerically semi-definite covariance at tight point spacing.
        cov_obs += 1e-12 * np.eye(len(obs))
        lam, phi = np.linalg.eigh(cov_obs)
        order = np.argsort(lam)[::-1]
        lam, phi = lam[order], phi[:, order]
        keep = lam > 1e-10 * lam[0] if lam[0] > 0 else lam > -1
        lam, phi = lam[keep], phi[:, keep]
        if n_terms is not None:
            lam, phi = lam[:n_terms], phi[:, :n_terms]

        # Covariance between observation points and every grid cell.
        gx = (np.arange(nx) + 0.5) * self.dl
        gy = (np.arange(ny) + 0.5) * self.dl
        GX, GY = np.meshgrid(gx, gy, indexing="ij")
        cells = np.stack([GX.ravel(), GY.ravel()], axis=1)
        cov_cross = self._covariance(obs, cells)  # (M, n_cells)

        if self.std == 0.0 or lam.size == 0:
            return np.zeros((0, nx, ny))
        # basis_j(x) = (1 / sqrt(lam_j)) phi_j^T C(obs, x)
        basis = (phi.T @ cov_cross) / np.sqrt(lam)[:, None]
        return basis.reshape(-1, nx, ny)

    # ------------------------------------------------------------------ #
    def sample_xi(self, rng: np.random.Generator) -> np.ndarray:
        """Draw i.i.d. standard-normal coefficients."""
        return rng.standard_normal(self.n_terms)

    def _forward(self, xi: np.ndarray) -> np.ndarray:
        if xi.shape != (self.n_terms,):
            raise ValueError(
                f"xi must have shape ({self.n_terms},), got {xi.shape}"
            )
        if self.n_terms == 0:
            return np.zeros(self.shape)
        return np.tensordot(xi, self.basis, axes=(0, 0))

    def _vjp(self, g: np.ndarray, out: np.ndarray, xi: np.ndarray):
        return (np.tensordot(self.basis, g, axes=([1, 2], [0, 1])),)

    def field_array(self, xi: np.ndarray) -> np.ndarray:
        """Field realization for raw numpy coefficients."""
        return self._forward(np.asarray(xi, dtype=np.float64))

    def field(self, xi) -> Tensor:
        """Differentiable field realization (gradient w.r.t. ``xi``)."""
        return self._op(as_tensor(xi))

    def sample_field(self, rng: np.random.Generator) -> np.ndarray:
        """Convenience: draw coefficients and evaluate the field."""
        return self.field_array(self.sample_xi(rng))
