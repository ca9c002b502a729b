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
from phasemax.measurements import MeasurementEnsemble, Observations
from phasemax.numerics import phase_align_error
from phasemax.pgm import read_pgm, write_pgm
from support import CountingEnsemble, spectral_anchor_reference


def dense_sigma(ens, obs):
    """sum_i b_i a_i a_i^H / M as a matrix."""
    return (ens.rows.T * obs.b) @ ens.rows.conj() / ens.m


def test_spectral_anchor_rank_one():
    # Sigma = a a^H (M = 1, b = 1) has a two-dimensional Krylov space: the
    # third Lanczos vector would be rounding noise, and the anchor is the
    # Ritz vector of the space found, not a division by a vanishing beta.
    rng = RngStream(301)
    row = sample_complex_gaussian(6, rng)
    ens = DenseEnsemble(row[None, :])
    obs = Observations(b=np.array([1.0]))
    report = spectral_anchor(ens, obs, 20, RngStream(302))
    assert report.steps == 2
    assert np.linalg.norm(report.a0) == pytest.approx(1.0, abs=1e-12)
    assert anchor_correlation(report.a0, row) == pytest.approx(1.0, abs=1e-10)
    assert report.rayleigh_quotient == pytest.approx(np.vdot(row, row).real, rel=1e-12)


def test_spectral_anchor_breaks_down_on_a_scaled_identity():
    # Sigma = I / n: every start vector is an eigenvector, so the first step
    # breaks down and the anchor is the start vector.
    n = 6
    ens = DenseEnsemble(np.eye(n))
    report = spectral_anchor(ens, Observations(b=np.ones(n)), 20, RngStream(317))
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
    adjoint(b o forward(v)) / m with b = 1: forward is h, adjoint m I."""

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
    report = spectral_anchor(HermitianOperator(h), Observations(b=np.ones(n)), 50,
                             RngStream(321))
    eigvals, eigvecs = np.linalg.eigh(h)
    assert eigvals[-1] == pytest.approx(2.0, rel=1e-12)
    assert report.rayleigh_quotient == pytest.approx(eigvals[-1], rel=1e-10)
    assert phase_align_error(report.a0, eigvecs[:, -1]) <= 1e-6


def test_spectral_anchor_rejects_degenerate_sigma():
    # Positive b on zero rows: Sigma = 0 maps every start vector to zero.
    ens = DenseEnsemble(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        spectral_anchor(ens, Observations(b=np.ones(4)), 10, RngStream(322))


def test_spectral_anchor_matches_dense_eigen_oracle():
    rng = RngStream(303)
    n, m = 16, 256
    xs = sample_complex_gaussian(n, rng)
    ens = DenseEnsemble.gaussian(n, m, rng)
    obs = observe(ens, xs, NoiseModel.none(), rng)
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


def test_spectral_anchor_no_further_than_power_steps_at_every_cap():
    rng = RngStream(323)
    n = 64
    ens = DenseEnsemble.gaussian(n, 8 * n, rng)
    obs = observe(ens, sample_complex_gaussian(n, rng), NoiseModel.none(), rng)
    top = np.linalg.eigh(dense_sigma(ens, obs))[1][:, -1]
    v = sample_complex_gaussian(n, RngStream(324))
    v = v / np.linalg.norm(v)
    for cap in range(1, 41):
        w = ens.adjoint(obs.b * ens.forward(v)) / ens.m
        v = w / np.linalg.norm(w)
        anchor = spectral_anchor(ens, obs, cap, RngStream(324)).a0
        power_distance = phase_align_error(v, top)
        assert phase_align_error(anchor, top) <= power_distance * (1 + 1e-9) + 1e-15, cap


def test_spectral_anchor_steps_on_the_cdp_demo(tmp_path):
    # Criterion 7's instance, built as run_cdp_demo builds it. 50 power steps
    # and a Rayleigh quotient made 51 applications of Sigma.
    path = tmp_path / "gradient64.pgm"
    write_pgm(path, np.add.outer(np.linspace(5, 250, 64), np.linspace(0, 30, 64)))
    flat = read_pgm(path).astype(np.float64).ravel()
    xstar = (flat / np.linalg.norm(flat)).astype(np.complex128)
    stream = RngStream(20260809)
    ens = CodedDiffractionEnsemble.rademacher(xstar.shape[0], 20, stream)
    obs = observe(ens, xstar, NoiseModel.none(), stream)
    counted = CountingEnsemble(ens)
    report = spectral_anchor(counted, obs, 50, stream)
    assert counted.forwards == counted.adjoints == report.steps
    assert counted.forwards + counted.adjoints <= 2 * 24


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

