"""End-to-end integration tests across the full optimization chain.

These exercise theta -> pattern -> fab -> FDFD -> loss -> gradient as one
system, including the finite-difference check of the complete chain — the
single most load-bearing correctness property of the reproduction.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig, build_loss
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.corners import VariationCorner
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature


@pytest.fixture(scope="module")
def bend():
    return make_device("bending")


@pytest.fixture(scope="module")
def smooth_setup(bend):
    """A fully smooth chain (no STE) so finite differences are valid."""
    process = FabricationProcess(
        bend.design_shape,
        bend.dl,
        context=bend.litho_context(12),
        pad=12,
        use_ste=False,
        etch_beta=6.0,
        eole_std=0.0,
    )
    config = OptimizerConfig(
        iterations=1,
        sampling="nominal",
        relax_epochs=0,
        seed=0,
        levelset_beta=1.0,
    )
    opt = Boson1Optimizer(bend, config, process=process)
    # Soft decoding for differentiability.
    opt.param.hard = False
    return opt


class TestFullChainGradient:
    def test_theta_gradient_matches_fd(self, bend, smooth_setup):
        """d loss / d theta through pattern+litho+etch+FDFD vs central FD."""
        opt = smooth_setup
        theta0 = opt.theta.copy()

        def loss_value(theta_np):
            t = Tensor(theta_np)
            loss, _, _ = opt.loss(t, iteration=0)
            return loss.item()

        theta_t = Tensor(theta0.copy(), requires_grad=True)
        loss, _, _ = opt.loss(theta_t, iteration=0)
        loss.backward()
        grad = theta_t.grad
        assert grad is not None

        # Check a handful of knots with meaningful gradient magnitude.
        flat_idx = np.argsort(np.abs(grad).ravel())[-3:]
        for idx in flat_idx:
            ij = np.unravel_index(idx, theta0.shape)
            d = 1e-4
            plus = theta0.copy()
            plus[ij] += d
            minus = theta0.copy()
            minus[ij] -= d
            fd = (loss_value(plus) - loss_value(minus)) / (2 * d)
            assert grad[ij] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_gradient_nonzero_through_ste_chain(self, bend):
        """The production (STE) chain still backpropagates signal."""
        config = OptimizerConfig(
            iterations=1, sampling="nominal", relax_epochs=0, seed=0
        )
        opt = Boson1Optimizer(bend, config)
        theta_t = Tensor(opt.theta.copy(), requires_grad=True)
        loss, _, _ = opt.loss(theta_t, iteration=0)
        loss.backward()
        assert theta_t.grad is not None
        assert np.abs(theta_t.grad).max() > 0


class TestVariationGradients:
    """d loss / dT and d loss / dxi through FDFD vs central FD.

    The worst-corner finder (``Boson1Optimizer._make_worst_finder``)
    steps on the signs of exactly these gradients: the loss of the
    fabricated pattern at background alpha 1.0, as a function of the
    temperature and the EOLE coefficients.
    """

    @pytest.fixture(scope="class")
    def variation_loss(self, bend):
        process = FabricationProcess(
            bend.design_shape,
            bend.dl,
            context=bend.litho_context(12),
            pad=12,
            use_ste=False,
            etch_beta=6.0,
        )
        config = OptimizerConfig(
            iterations=1,
            sampling="nominal",
            relax_epochs=0,
            seed=0,
            levelset_beta=1.0,
        )
        opt = Boson1Optimizer(bend, config, process=process)
        opt.param.hard = False
        rho = opt.decode(Tensor(opt.theta)).detach()
        probe = VariationCorner("worst-probe")

        def loss(temperature, xi):
            rho_fab = process.apply(rho, probe, temperature=temperature, xi=xi)
            powers = bend.port_powers_all(rho_fab, 1.0)
            return build_loss(opt.terms, powers, config.dense_objectives)

        t0 = 310.0
        xi0 = 0.5 * np.random.default_rng(0).standard_normal(
            process.eole.n_terms
        )
        t = Tensor(np.array(t0), requires_grad=True)
        xi = Tensor(xi0.copy(), requires_grad=True)
        loss(t, xi).backward()

        def value(temperature, xi_np):
            return loss(Tensor(np.array(temperature)), Tensor(xi_np)).item()

        return value, t0, xi0, float(t.grad), xi.grad.copy()

    def test_temperature_gradient_matches_fd(self, variation_loss):
        value, t0, xi0, t_grad, _ = variation_loss
        d = 1e-3
        fd = (value(t0 + d, xi0) - value(t0 - d, xi0)) / (2 * d)
        assert abs(t_grad - fd) <= 1e-5 * abs(fd)

    def test_eole_gradient_matches_fd(self, variation_loss):
        value, t0, xi0, _, xi_grad = variation_loss
        d = 1e-4
        for k in np.argsort(np.abs(xi_grad))[-2:]:
            step = np.zeros_like(xi0)
            step[k] = d
            fd = (value(t0, xi0 + step) - value(t0, xi0 - step)) / (2 * d)
            assert abs(xi_grad[k] - fd) <= 1e-5 * abs(fd)


class TestCornerConsistency:
    def test_autodiff_matches_eval_path(self, bend):
        """The engine's corner loss equals the evaluation-path computation."""
        config = OptimizerConfig(
            iterations=1, sampling="nominal", relax_epochs=0, seed=0
        )
        opt = Boson1Optimizer(bend, config)
        rho = opt.decode(Tensor(opt.theta))
        corner = VariationCorner(
            "c", litho="max", temperature_k=320.0, eta_shift=0.01
        )
        [(loss_t, powers_t)], _ = opt._corner_losses(
            rho, [corner], include_ideal=False
        )

        fabbed = opt.process.apply_array(rho.data, corner)
        alpha = alpha_of_temperature(corner.temperature_k)
        powers_np = {
            d: bend.port_powers_array(fabbed, d, alpha)
            for d in bend.directions
        }
        for d in powers_np:
            for name in powers_np[d]:
                assert powers_t[d][name].item() == pytest.approx(
                    powers_np[d][name], rel=1e-9
                )


class TestOptimizeEvaluateRoundtrip:
    def test_bend_pipeline_end_to_end(self, bend):
        """Optimize briefly, then the MC evaluation runs and is finite."""
        config = OptimizerConfig(
            iterations=4, sampling="axial", relax_epochs=2, seed=0
        )
        opt = Boson1Optimizer(bend, config)
        result = opt.run()
        report = evaluate_post_fab(
            bend, opt.process, result.pattern, n_samples=3, seed=11
        )
        assert np.all(np.isfinite(report.foms))
        assert 0 <= report.mean_fom <= 1.2

    def test_fab_awareness_beats_free_opt_post_fab(self, bend):
        """The paper's headline claim, in miniature: for equal budgets,
        optimizing through the fab model yields better post-fab FoM than
        free-space optimization of the same parameterization."""
        iters = 10
        free_cfg = OptimizerConfig(
            iterations=iters, use_fab=False, sampling="nominal",
            relax_epochs=0, seed=0, parameterization="density",
        )
        free_opt = Boson1Optimizer(bend, free_cfg)
        free = free_opt.run()

        fab_cfg = OptimizerConfig(
            iterations=iters, sampling="nominal", relax_epochs=3, seed=0
        )
        fab_opt = Boson1Optimizer(bend, fab_cfg, process=free_opt.process)
        fab = fab_opt.run()

        free_post = evaluate_post_fab(
            bend, free_opt.process, free.pattern, n_samples=4, seed=3
        ).mean_fom
        fab_post = evaluate_post_fab(
            bend, fab_opt.process, fab.pattern, n_samples=4, seed=3
        ).mean_fom
        assert fab_post > free_post


class TestLossComposition:
    def test_eq3_blend_interpolates(self, bend):
        """p=0 gives the ideal loss, p=1 the fab loss, 0<p<1 in between."""
        config = OptimizerConfig(
            iterations=1, sampling="nominal", relax_epochs=10, p_start=0.0,
            seed=0,
        )
        opt = Boson1Optimizer(bend, config)
        theta_t = Tensor(opt.theta.copy())

        # iteration 0 -> p = 0 (pure ideal)
        loss_p0, _, _ = opt.loss(theta_t, iteration=0)
        rho = opt.decode(theta_t)
        ideal, _ = opt._ideal_loss(rho)
        assert loss_p0.item() == pytest.approx(ideal.item(), rel=1e-9)

        # iteration >= relax_epochs -> p = 1 (pure fab)
        loss_p1, _, _ = opt.loss(theta_t, iteration=10)
        [(fab, _)], _ = opt._corner_losses(
            rho, [VariationCorner("nominal")], include_ideal=False
        )
        assert loss_p1.item() == pytest.approx(fab.item(), rel=1e-9)

        # halfway: strictly between (generic case)
        loss_mid, _, _ = opt.loss(theta_t, iteration=5)
        lo, hi = sorted([ideal.item(), fab.item()])
        assert lo - 1e-9 <= loss_mid.item() <= hi + 1e-9
