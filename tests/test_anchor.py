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
from phasemax.measurements import Observations
from support import spectral_anchor_reference


def test_spectral_anchor_rank_one():
    rng = RngStream(301)
    row = sample_complex_gaussian(6, rng)
    ens = DenseEnsemble(row[None, :])
    obs = Observations(b=np.array([1.0]))
    report = spectral_anchor(ens, obs, 20, RngStream(302))
    assert np.linalg.norm(report.a0) == pytest.approx(1.0, abs=1e-12)
    assert anchor_correlation(report.a0, row) == pytest.approx(1.0, abs=1e-10)


def test_spectral_anchor_matches_dense_eigen_oracle():
    rng = RngStream(303)
    n, m = 16, 256
    xs = sample_complex_gaussian(n, rng)
    ens = DenseEnsemble.gaussian(n, m, rng)
    obs = observe(ens, xs, NoiseModel.none(), rng)
    report = spectral_anchor(ens, obs, 50, RngStream(304))

    sigma = (ens.rows.T * obs.b) @ ens.rows.conj() / m  # sum_i b_i a_i a_i^H / M
    eigvals, eigvecs = np.linalg.eigh(sigma)
    top = eigvecs[:, -1]
    corr_power = anchor_correlation(report.a0, xs)
    corr_eigen = anchor_correlation(top, xs)
    assert corr_power == pytest.approx(corr_eigen, abs=1e-6)
    assert report.rayleigh_quotient == pytest.approx(eigvals[-1], rel=1e-6)


@pytest.mark.parametrize("kind", ["dense", "cdp"])
def test_spectral_anchor_matches_plain_power_iteration(kind):
    # The anchor writes every step's forward into one buffer; that must not
    # change a bit of the iteration.
    rng = RngStream(314)
    n = 64
    if kind == "dense":
        ens = DenseEnsemble.gaussian(n, 6 * n, rng)
    else:
        ens = CodedDiffractionEnsemble.rademacher(n, 6, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.none(), rng)
    report = spectral_anchor(ens, obs, 30, RngStream(315))
    a0, quotient = spectral_anchor_reference(ens, obs, 30, RngStream(315))
    assert np.array_equal(report.a0, a0)
    assert report.rayleigh_quotient == quotient


def test_spectral_anchor_rayleigh_quotient_nondecreasing():
    rng = RngStream(305)
    n, m = 12, 96
    xs = sample_complex_gaussian(n, rng)
    ens = DenseEnsemble.gaussian(n, m, rng)
    obs = observe(ens, xs, NoiseModel.none(), rng)
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
    n = 128
    m = 8 * n
    corrs = []
    for trial in range(20):
        stream = RngStream(311, trial)
        xs = sample_complex_gaussian(n, stream)
        ens = DenseEnsemble.gaussian(n, m, stream)
        obs = observe(ens, xs, NoiseModel.none(), stream)
        report = spectral_anchor(ens, obs, 50, stream)
        corrs.append(anchor_correlation(report.a0, xs))
    assert np.median(corrs) >= 0.5


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

