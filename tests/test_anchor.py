import copy

import numpy as np
import pytest

from phasemax import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    RngStream,
    anchor_correlation,
    observe,
    sample_complex_gaussian,
    spectral_anchor,
)
from phasemax.anchor import _T_FLOOR, _lanczos, _preprocess
from phasemax.experiments import _cdp_instance, _gaussian_instance, run_cdp_demo
from phasemax.measurements import MeasurementEnsemble, Observations
from phasemax.numerics import phase_align_error
from phasemax.pgm import write_pgm
from support import (CountingEnsemble, preprocessed_weights, spectral_anchor_reference,
                     write_demo_image)


def dense_sigma(ens, obs):
    """Sigma_T = sum_i T(y_i) a_i a_i^H / M as a matrix."""
    return (ens.rows.T * preprocessed_weights(obs.b, ens.n)) @ ens.rows.conj() / ens.m


# The Lanczos core with explicit weights w: Sigma_w = sum_i w_i a_i a_i^H / M.


def test_spectral_anchor_rank_one():
    # Sigma = a a^H (M = 1, w = 1) has a two-dimensional Krylov space: the
    # third Lanczos vector would be rounding noise, and the anchor is the
    # Ritz vector of the space found, not a division by a vanishing beta.
    rng = RngStream(301)
    row = sample_complex_gaussian(6, rng)
    ens = DenseEnsemble(row[None, :])
    report = _lanczos(ens, np.ones(1), 20, RngStream(302))
    assert report.steps == 2
    assert np.linalg.norm(report.a0) == pytest.approx(1.0, abs=1e-12)
    assert anchor_correlation(report.a0, row) == pytest.approx(1.0, abs=1e-10)
    assert report.rayleigh_quotient == pytest.approx(np.vdot(row, row).real, rel=1e-12)


def test_spectral_anchor_breaks_down_on_a_scaled_identity():
    # Sigma = I / n: every start vector is an eigenvector, so the first step
    # breaks down and the anchor is the start vector.
    n = 6
    ens = DenseEnsemble(np.eye(n))
    report = _lanczos(ens, np.ones(n), 20, RngStream(317))
    start = sample_complex_gaussian(n, RngStream(317))
    assert report.steps == 1
    assert report.rayleigh_quotient == pytest.approx(1.0 / n, rel=1e-12)
    assert np.allclose(report.a0, start / np.linalg.norm(start), rtol=0, atol=1e-15)


@pytest.mark.parametrize("iters", [5, 6, 50])
def test_spectral_anchor_cap_of_n_or_more(iters):
    # n = 5: the Krylov space fills C^5 by step 5 at the latest.
    rng = RngStream(318)
    n = 5
    ens = DenseEnsemble.gaussian(n, 40, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.none(), rng)
    report = spectral_anchor(ens, obs, iters, RngStream(319))
    eigvals, eigvecs = np.linalg.eigh(dense_sigma(ens, obs))
    assert report.steps <= n
    assert report.rayleigh_quotient == pytest.approx(eigvals[-1], rel=1e-10)
    assert phase_align_error(report.a0, eigvecs[:, -1]) <= 1e-7


class HermitianOperator(MeasurementEnsemble):
    """Sigma = h for any Hermitian h, in the anchor's form
    adjoint(w o forward(v)) / m with w = 1: forward is h, adjoint m I."""

    def __init__(self, h):
        self.h = h
        self.n = self.m = h.shape[0]

    def forward(self, x, *, out=None):
        return np.matmul(self.h, x, out=out)

    def adjoint(self, z):
        return z * self.m


def test_spectral_anchor_gives_the_largest_algebraic_eigenpair():
    # The most negative eigenvalue, -3, is the largest in modulus, where the
    # power method would go; Lanczos needs no shift to find the top one, 2.
    rng = RngStream(320)
    n = 40
    q, _ = np.linalg.qr(sample_complex_gaussian(n * n, rng).reshape(n, n))
    values = np.append(np.linspace(-3.0, 1.5, n - 1), 2.0)
    h = (q * values) @ q.conj().T
    h = (h + h.conj().T) / 2
    report = _lanczos(HermitianOperator(h), np.ones(n), 50, RngStream(321))
    eigvals, eigvecs = np.linalg.eigh(h)
    assert eigvals[-1] == pytest.approx(2.0, rel=1e-12)
    assert report.rayleigh_quotient == pytest.approx(eigvals[-1], rel=1e-10)
    assert phase_align_error(report.a0, eigvecs[:, -1]) <= 1e-6


def test_spectral_anchor_rejects_degenerate_sigma():
    # Zero rows map every start vector to zero, whatever the weights: the
    # core's w = 1, and spectral_anchor's T(y) of unequal b.
    ens = DenseEnsemble(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="start vector"):
        _lanczos(ens, np.ones(4), 10, RngStream(322))
    with pytest.raises(ValueError, match="start vector"):
        spectral_anchor(ens, Observations(b=np.arange(1.0, 5.0)), 10, RngStream(322))


def test_spectral_anchor_matches_dense_eigen_oracle():
    ens, obs, xs = _gaussian_instance(16, 16.0, NoiseModel.none(), RngStream(303))
    report = spectral_anchor(ens, obs, 50, RngStream(304))

    eigvals, eigvecs = np.linalg.eigh(dense_sigma(ens, obs))
    top = eigvecs[:, -1]
    corr_anchor = anchor_correlation(report.a0, xs)
    corr_eigen = anchor_correlation(top, xs)
    assert corr_anchor == pytest.approx(corr_eigen, abs=1e-6)
    assert report.rayleigh_quotient == pytest.approx(eigvals[-1], rel=1e-6)


@pytest.mark.parametrize("kind", ["dense", "cdp"])
def test_spectral_anchor_matches_plain_lanczos(kind):
    # The anchor writes every step's forward into one buffer and grows its
    # basis in place; that must not change a bit of the iteration, whether
    # it stops on the residual (cap 30) or at the cap (5).
    rng = RngStream(314)
    n = 64
    if kind == "dense":
        ens = DenseEnsemble.gaussian(n, 6 * n, rng)
    else:
        ens = CodedDiffractionEnsemble.rademacher(n, 6, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.none(), rng)
    for iters in (5, 30):
        report = spectral_anchor(ens, obs, iters, RngStream(315))
        a0, quotient, steps = spectral_anchor_reference(ens, obs, iters, RngStream(315))
        assert np.array_equal(report.a0, a0)
        assert report.rayleigh_quotient == quotient
        assert report.steps == steps
    assert steps < 30


@pytest.mark.parametrize("ratio", [2, 8])
def test_spectral_anchor_against_shifted_power_steps_at_every_cap(ratio):
    # Sigma_T is indefinite, and its most negative eigenvalue is the larger
    # in modulus (-2.29 against 0.52 at M/N 2, -0.33 against 0.21 at M/N 8),
    # so plain power steps go to its bottom eigenvector. Shifted by that
    # eigenvalue they go to the top one, through the Krylov spaces the anchor
    # searches; from cap 2 on the anchor is no further from the top
    # eigenvector than as many shifted steps. At cap 1 the anchor is the
    # unshifted power step on the start vector: 1.34 from the top eigenvector
    # against 1.37 for the start vector at M/N 8, but 1.37 against 1.35 at
    # M/N 2, where it favours the negative end; a shifted step reads 1.33
    # and 1.32.
    rng = RngStream(323)
    n = 64
    ens = DenseEnsemble.gaussian(n, ratio * n, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.none(), rng)
    sigma = dense_sigma(ens, obs)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    assert -eigvals[0] > eigvals[-1] > 0
    top = eigvecs[:, -1]
    v = sample_complex_gaussian(n, RngStream(324))
    v = v / np.linalg.norm(v)
    step = sigma @ v
    anchor = spectral_anchor(ens, obs, 1, RngStream(324)).a0
    assert np.allclose(anchor, step / np.linalg.norm(step), rtol=0, atol=1e-12)
    for cap in range(1, 41):
        w = sigma @ v - eigvals[0] * v
        v = w / np.linalg.norm(w)
        if cap > 1:
            anchor = spectral_anchor(ens, obs, cap, RngStream(324)).a0
            shifted_distance = phase_align_error(v, top)
            assert phase_align_error(anchor, top) <= shifted_distance * (1 + 1e-9) + 1e-15, cap


def test_spectral_anchor_steps_on_the_cdp_demo(tmp_path):
    # Criterion 7's instance, where Lanczos takes 15 steps. 50 power steps and
    # a Rayleigh quotient made 51 applications of Sigma.
    path = write_demo_image(tmp_path / "gradient64.pgm")
    ens, obs, _, stream, _, _ = _cdp_instance(path, 20, 20260809)
    counted = CountingEnsemble(ens)
    report = spectral_anchor(counted, obs, 50, stream)
    assert counted.forwards == counted.adjoints == report.steps
    assert counted.forwards + counted.adjoints <= 2 * 24


def test_preprocessing_stays_finite_where_its_denominator_vanishes():
    # T(y) = (y - 1) / (y + sqrt(delta) - 1) divides by zero at y = 0 when
    # delta = 1 (b_i = 0 from gaussian clipping) and at y = 1 - sqrt(delta)
    # when delta < 1; the denominator's floor keeps T finite there, with no
    # divide-by-zero warning (an error under pytest).
    rng = RngStream(325)
    n = 16
    ens = DenseEnsemble.gaussian(n, n, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.gaussian(0.0), rng)
    assert np.any(obs.b == 0)
    weights = _preprocess(obs.b, n)
    assert np.all(weights[obs.b == 0] == -1 / _T_FLOOR)
    assert np.all(np.isfinite(weights))
    few = DenseEnsemble.gaussian(8, 2, rng)  # delta = 1/4: the pole is at y = 1/2
    pole = Observations(b=np.array([0.5, 1.5]))
    assert np.array_equal(_preprocess(pole.b, 8), [-0.5 / _T_FLOOR, 0.5])
    for ens, obs in ((ens, obs), (few, pole)):
        report = spectral_anchor(ens, obs, 20, RngStream(326))
        assert np.linalg.norm(report.a0) == pytest.approx(1.0, abs=1e-12)


def test_spectral_anchor_of_equal_measurements_is_the_start_vector(tmp_path):
    # Equal b make T = 0 and Sigma_T = 0: every vector is a top eigenvector,
    # and the anchor is the unit start vector, not 0 / 0. On the CDP demo of a
    # one-pixel image every b_i is 1/64, and the solve from that anchor runs
    # to the cap, as it did with the b-weighted anchor (there Sigma = I / 64).
    ens = DenseEnsemble.gaussian(6, 24, RngStream(327))
    report = spectral_anchor(ens, Observations(b=np.full(24, 2.0)), 20, RngStream(328))
    start = sample_complex_gaussian(6, RngStream(328))
    assert (report.rayleigh_quotient, report.steps) == (0.0, 1)
    assert np.allclose(report.a0, start / np.linalg.norm(start), rtol=0, atol=1e-15)
    image = np.zeros((8, 8))
    image[3, 4] = 200
    write_pgm(tmp_path / "pixel.pgm", image)
    ens, obs, _, stream, _, _ = _cdp_instance(tmp_path / "pixel.pgm", 8, 20260809)
    assert np.all(obs.b == obs.b[0])
    start = sample_complex_gaussian(ens.n, copy.deepcopy(stream))
    assert np.allclose(spectral_anchor(ens, obs, 50, stream).a0, start / np.linalg.norm(start),
                       rtol=0, atol=1e-15)
    report = run_cdp_demo(tmp_path / "pixel.pgm", num_masks=8, seed=20260809,
                          out_prefix=str(tmp_path / "pixel"))
    assert report.iters_used == 175
    assert np.isfinite(report.rel_error)


def test_spectral_anchor_rayleigh_quotient_nondecreasing():
    ens, obs, _ = _gaussian_instance(12, 8.0, NoiseModel.none(), RngStream(305))
    quotients = [
        spectral_anchor(ens, obs, iters, RngStream(306)).rayleigh_quotient
        for iters in range(1, 15)
    ]
    for prev, nxt in zip(quotients, quotients[1:]):
        assert nxt >= prev - 1e-12


def test_spectral_anchor_rejects_zero_observations():
    ens = DenseEnsemble.gaussian(4, 8, RngStream(307))
    obs = Observations(b=np.zeros(8))
    with pytest.raises(ValueError):
        spectral_anchor(ens, obs, 10, RngStream(308))


def test_spectral_anchor_phase_covariance():
    rng = RngStream(309)
    n, m = 10, 80
    xs = sample_complex_gaussian(n, rng)
    ens = DenseEnsemble.gaussian(n, m, rng)
    obs1 = observe(ens, xs, NoiseModel.none(), RngStream(1))
    obs2 = observe(ens, np.exp(1.3j) * xs, NoiseModel.none(), RngStream(1))
    a1 = spectral_anchor(ens, obs1, 30, RngStream(310)).a0
    a2 = spectral_anchor(ens, obs2, 30, RngStream(310)).a0
    assert np.allclose(a1, a2, atol=1e-9)


def test_spectral_anchor_median_correlation_at_8x_oversampling():
    # 0.887 from Sigma_T; the b-weighted Sigma gave 0.707.
    corrs = []
    for trial in range(20):
        stream = RngStream(311, trial)
        ens, obs, xs = _gaussian_instance(128, 8.0, NoiseModel.none(), stream)
        report = spectral_anchor(ens, obs, 50, stream)
        corrs.append(anchor_correlation(report.a0, xs))
    assert np.median(corrs) >= 0.85


def test_anchor_correlation_extremes():
    rng = RngStream(312)
    xs = sample_complex_gaussian(8, rng)
    assert anchor_correlation(xs, xs) == pytest.approx(1.0)
    y = sample_complex_gaussian(8, rng)
    y_perp = y - (np.vdot(xs, y) / np.vdot(xs, xs)) * xs
    assert anchor_correlation(y_perp, xs) == pytest.approx(0.0, abs=1e-12)


def test_anchor_correlation_balanced_mixture():
    rng = RngStream(313)
    xs = sample_complex_gaussian(8, rng)
    y = sample_complex_gaussian(8, rng)
    y_perp = y - (np.vdot(xs, y) / np.vdot(xs, xs)) * xs
    y_perp = y_perp * (np.linalg.norm(xs) / np.linalg.norm(y_perp))
    mix = (xs + y_perp) / np.linalg.norm(xs + y_perp)
    assert anchor_correlation(mix, xs) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_anchor_correlation_rejects_zero():
    with pytest.raises(ValueError):
        anchor_correlation(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))

