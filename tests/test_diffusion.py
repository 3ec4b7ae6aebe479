import numpy as np
import pytest

from outpaint import diffusion as D
from outpaint import tensor as T
from outpaint.tensor import ShapeMismatch, Tensor, backward


def rng(seed=0):
    return np.random.default_rng(seed)


def test_single_step_schedule():
    s = D.linear_schedule(1, 0.02, 0.02)
    np.testing.assert_allclose(s.betas, [0.02])
    assert s.alpha_bar(1) == pytest.approx(0.98)
    assert s.alpha_bar(0) == 1.0


def test_schedule_matches_sequential_product_oracle():
    s = D.linear_schedule(1000, 1e-4, 0.02)
    prod = 1.0
    for b in s.betas:
        prod *= 1.0 - b
    assert abs(s.alpha_bar(1000) - prod) < 1e-12


def test_schedule_recurrence_and_monotonicity():
    g = rng(1)
    for _ in range(20):
        lo = g.uniform(1e-5, 0.01)
        hi = g.uniform(lo, 0.2)
        steps = int(g.integers(1, 50))
        s = D.linear_schedule(steps, lo, hi)
        assert np.all(np.diff(s.betas) >= -1e-15)
        bars = s.alpha_bars
        assert bars[0] == 1.0 and np.all(np.diff(bars) < 0) and bars[-1] > 0
        for t in range(1, steps + 1):
            assert abs(s.alpha_bar(t) - s.alpha_bar(t - 1) * (1.0 - s.beta(t))) < 1e-14


def test_schedule_bad_ranges():
    for args in [(0, 0.1, 0.2), (10, 0.0, 0.2), (10, 0.3, 0.2), (10, 0.1, 1.0)]:
        with pytest.raises(D.ConfigError):
            D.linear_schedule(*args)


def test_forward_sample_zero_noise():
    s = D.linear_schedule(10, 1e-4, 0.02)
    x0 = rng(2).uniform(-1, 1, (3, 4, 4))
    out = D.forward_sample(x0, 5, np.zeros_like(x0), s)
    np.testing.assert_allclose(out, np.sqrt(s.alpha_bar(5)) * x0, atol=1e-15)


def test_forward_sample_near_identity_at_tiny_beta():
    s = D.linear_schedule(10, 1e-6, 1e-6)
    g = rng(3)
    x0 = g.uniform(-1, 1, (2, 4, 4))
    eps = g.standard_normal((2, 4, 4))
    out = D.forward_sample(x0, 1, eps, s)
    bound = np.sqrt(1e-6) * np.abs(eps) + 1e-6 * np.abs(x0)
    assert np.all(np.abs(out - x0) <= bound + 1e-12)


def test_forward_marginal_matches_stepwise_monte_carlo():
    # Iterate the stepwise Gaussian and compare the marginal at t against
    # the closed form, within 3 standard errors over 10^4 draws.
    s = D.linear_schedule(10, 0.01, 0.1)
    t = 10
    n = 10_000
    g = rng(4)
    x0 = 0.7
    x = np.full(n, x0)
    for step in range(1, t + 1):
        b = s.beta(step)
        x = np.sqrt(1.0 - b) * x + np.sqrt(b) * g.standard_normal(n)
    ab = s.alpha_bar(t)
    want_mean = np.sqrt(ab) * x0
    want_var = 1.0 - ab
    se_mean = np.sqrt(want_var / n)
    se_var = want_var * np.sqrt(2.0 / (n - 1))
    assert abs(x.mean() - want_mean) < 3 * se_mean
    assert abs(x.var() - want_var) < 3 * se_var


def test_forward_sample_bad_timestep():
    s = D.linear_schedule(5, 1e-4, 0.02)
    x = np.zeros((2, 2))
    for t in (0, 6):
        with pytest.raises(D.BadTimestep):
            D.forward_sample(x, t, x, s)


def test_ddpm_step_continuity_at_tiny_beta():
    s = D.linear_schedule(10, 1e-9, 1e-9)
    g = rng(5)
    x_t = g.uniform(-1, 1, (3, 3))
    eps = g.standard_normal((3, 3))
    out = D.ddpm_step(x_t, 5, eps, s)
    assert np.abs(out - x_t).max() < 1e-4


def test_ddpm_step_inverts_forward_at_t1():
    # Certifies the 1/sqrt(alpha) coefficient: with the true noise and no
    # injected randomness, the reverse step at t=1 recovers x0 exactly.
    s = D.linear_schedule(200, 1e-4, 0.05)
    g = rng(6)
    x0 = g.uniform(-1, 1, (3, 8, 8))
    eps = g.standard_normal((3, 8, 8))
    x1 = D.forward_sample(x0, 1, eps, s)
    back = D.ddpm_step(x1, 1, eps, s, z=None)
    np.testing.assert_allclose(back, x0, atol=1e-10)


def test_ddpm_step_matches_symbolic_oracle():
    s = D.linear_schedule(50, 1e-4, 0.03)
    g = rng(7)
    x_t = g.uniform(-1, 1, (2, 4, 4))
    eps = g.standard_normal((2, 4, 4))
    z = g.standard_normal((2, 4, 4))
    t = 17
    got = D.ddpm_step(x_t, t, eps, s, z)
    b = s.beta(t)
    want = (x_t - b / np.sqrt(1 - s.alpha_bar(t)) * eps) / np.sqrt(1 - b) + np.sqrt(b) * z
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ddim_step_exact_inversion_to_zero():
    s = D.linear_schedule(100, 1e-4, 0.02)
    g = rng(8)
    x0 = g.uniform(-1, 1, (3, 4, 4))
    eps = g.standard_normal((3, 4, 4))
    t = 60
    x_t = D.forward_sample(x0, t, eps, s)
    np.testing.assert_allclose(D.ddim_step(x_t, t, 0, eps, s), x0, atol=1e-12)


def test_ddim_step_zero_eps_is_pure_rescale():
    s = D.linear_schedule(100, 1e-4, 0.02)
    x_t = rng(9).uniform(-1, 1, (2, 3, 3))
    got = D.ddim_step(x_t, 40, 20, np.zeros_like(x_t), s)
    want = np.sqrt(s.alpha_bar(20) / s.alpha_bar(40)) * x_t
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ddim_chain_with_perfect_eps_reconstructs_x0():
    # 50 uniform-stride steps; at each visited step the "model" is handed
    # the analytically exact noise for the current state.
    s = D.linear_schedule(1000, 1e-4, 0.02)
    g = rng(10)
    x0 = g.uniform(-1, 1, (3, 8, 8))
    eps0 = g.standard_normal((3, 8, 8))
    taus = D.ddim_timesteps(1000, 50)
    assert taus[0] == 1000 and taus[-1] == 0 and len(taus) == 51
    x = D.forward_sample(x0, 1000, eps0, s)
    for i in range(len(taus) - 1):
        t = int(taus[i])
        ab = s.alpha_bar(t)
        true_eps = (x - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)
        x = D.ddim_step(x, t, int(taus[i + 1]), true_eps, s)
    np.testing.assert_allclose(x, x0, atol=1e-8)


def test_ddim_step_rejects_bad_pairs():
    s = D.linear_schedule(10, 1e-4, 0.02)
    x = np.zeros((2, 2))
    with pytest.raises(D.BadTimestep):
        D.ddim_step(x, 5, 5, x, s)
    with pytest.raises(D.BadTimestep):
        D.ddim_step(x, 11, 0, x, s)


def test_ddim_timesteps_exact_stride():
    taus = D.ddim_timesteps(200, 50)
    assert taus[0] == 200 and taus[-1] == 0
    assert np.all(np.diff(taus) == -4)


def test_training_loss_zero_iff_equal():
    g = rng(11)
    eps = g.standard_normal((3, 4, 4))
    assert D.training_loss(eps, Tensor(eps.copy())).item() == 0.0
    shifted = D.training_loss(eps, Tensor(eps + 1.0)).item()
    assert shifted == pytest.approx(1.0)
    other = D.training_loss(eps, Tensor(g.standard_normal((3, 4, 4)))).item()
    assert other > 0.0


def test_training_loss_matches_two_pass_oracle():
    g = rng(12)
    eps = g.standard_normal((2, 5, 5))
    pred = g.standard_normal((2, 5, 5))
    got = D.training_loss(eps, Tensor(pred)).item()
    diff = pred - eps
    sq = diff * diff
    assert abs(got - sq.mean()) < 1e-14


def test_training_loss_gradient():
    g = rng(13)
    eps = g.standard_normal((2, 3, 3))
    pred = Tensor(g.standard_normal((2, 3, 3)), requires_grad=True)
    loss = D.training_loss(eps, pred)
    backward(loss)
    np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - eps) / eps.size, atol=1e-12)


def test_training_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        D.training_loss(np.zeros((2, 2)), Tensor(np.zeros((3, 3))))
