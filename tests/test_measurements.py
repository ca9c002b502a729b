import numpy as np
import pytest

from phasemax import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    Observations,
    RngStream,
    observe,
    operator_norm,
    sample_complex_gaussian,
    sample_rademacher,
)


def dft_basis_vector(k, n):
    """k-th unitary discrete Fourier basis vector."""
    return np.exp(2j * np.pi * k * np.arange(n) / n) / np.sqrt(n)


def materialize_cdp_rows(masks):
    """Rows f_k o phi_l in mask-major order, for the dense oracle."""
    num_masks, n = masks.shape
    rows = np.empty((num_masks * n, n), dtype=complex)
    for ell in range(num_masks):
        for k in range(n):
            rows[ell * n + k] = dft_basis_vector(k, n) * masks[ell]
    return rows


def test_cdp_impulse_gives_flat_spectrum():
    ens = CodedDiffractionEnsemble(np.ones((1, 8)))
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    out = ens.forward(x)
    assert out.shape == (8,)
    assert np.allclose(np.abs(out), 1.0 / np.sqrt(8), atol=1e-14)


def test_dense_single_row_forward():
    rng = RngStream(201)
    x = sample_complex_gaussian(6, rng)
    row = x / np.linalg.norm(x)
    ens = DenseEnsemble(row[None, :])
    out = ens.forward(x)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(np.linalg.norm(x), abs=1e-12)


@pytest.mark.parametrize("n,num_masks", [(16, 2), (32, 3)])
def test_cdp_forward_matches_dense_materialization(n, num_masks):
    rng = RngStream(202)
    ens = CodedDiffractionEnsemble.rademacher(n, num_masks, rng)
    dense = DenseEnsemble(materialize_cdp_rows(ens.masks))
    x = sample_complex_gaussian(n, rng)
    assert np.allclose(ens.forward(x), dense.forward(x), atol=1e-12)


@pytest.mark.parametrize("n,num_masks", [(16, 2), (32, 3)])
def test_cdp_adjoint_matches_dense_materialization(n, num_masks):
    rng = RngStream(203)
    ens = CodedDiffractionEnsemble.rademacher(n, num_masks, rng)
    dense = DenseEnsemble(materialize_cdp_rows(ens.masks))
    z = sample_complex_gaussian(ens.m, rng)
    assert np.allclose(ens.adjoint(z), dense.adjoint(z), atol=1e-12)


def test_dense_single_row_adjoint():
    rng = RngStream(204)
    row = sample_complex_gaussian(5, rng)
    ens = DenseEnsemble(row[None, :])
    out = ens.adjoint(np.array([1.0 + 0.0j]))
    assert np.allclose(out, row, atol=1e-14)


@pytest.mark.parametrize("kind", ["dense", "cdp"])
def test_adjoint_consistency(kind):
    rng = RngStream(205)
    if kind == "dense":
        ens = DenseEnsemble.gaussian(12, 30, rng)
    else:
        ens = CodedDiffractionEnsemble.rademacher(12, 3, rng)
    for _ in range(100):
        x = sample_complex_gaussian(ens.n, rng)
        z = sample_complex_gaussian(ens.m, rng)
        lhs = np.vdot(ens.forward(x), z)
        rhs = np.vdot(x, ens.adjoint(z))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_cdp_requires_m_equals_l_times_n():
    ens = CodedDiffractionEnsemble.rademacher(10, 4, RngStream(206))
    assert ens.m == 40
    with pytest.raises(ValueError):
        ens.forward(np.ones(9, dtype=complex))
    with pytest.raises(ValueError):
        ens.adjoint(np.ones(39, dtype=complex))


def test_observe_zero_signal():
    ens = DenseEnsemble.gaussian(8, 24, RngStream(207))
    obs = observe(ens, np.zeros(8, dtype=complex), NoiseModel.none(), RngStream(208))
    assert np.all(obs.b == 0.0)


def test_observe_phase_invariance():
    rng = RngStream(209)
    ens = DenseEnsemble.gaussian(8, 24, rng)
    xs = sample_complex_gaussian(8, rng)
    b1 = observe(ens, xs, NoiseModel.none(), RngStream(1)).b
    b2 = observe(ens, np.exp(0.83j) * xs, NoiseModel.none(), RngStream(1)).b
    assert np.allclose(b1, b2, atol=1e-12 * max(1.0, b1.max()))


def test_observe_uniform_noise_envelope():
    rng = RngStream(210)
    ens = DenseEnsemble.gaussian(8, 200, rng)
    xs = sample_complex_gaussian(8, rng)
    clean = np.abs(ens.forward(xs)) ** 2
    obs = observe(ens, xs, NoiseModel.uniform(0.1), RngStream(211))
    assert np.all(obs.b >= clean - 1e-12)
    assert np.all(obs.b <= clean + 0.1 + 1e-12)


def test_observe_gaussian_noise_clips_and_records_snr():
    rng = RngStream(212)
    ens = DenseEnsemble.gaussian(8, 500, rng)
    xs = sample_complex_gaussian(8, rng)
    snr_db = 0.0
    obs = observe(ens, xs, NoiseModel.gaussian(snr_db), RngStream(213))
    assert np.all(obs.b >= 0.0)
    assert np.any(obs.b == 0.0)  # negative measurements were clipped
    assert obs.snr_db == pytest.approx(snr_db, abs=1e-9)


def test_observe_gaussian_noise_rejects_zero_signal():
    ens = DenseEnsemble.gaussian(8, 24, RngStream(216))
    with pytest.raises(ValueError):
        observe(ens, np.zeros(8, dtype=complex), NoiseModel.gaussian(30.0), RngStream(217))


def test_observe_none_records_no_snr():
    rng = RngStream(214)
    ens = DenseEnsemble.gaussian(4, 8, rng)
    obs = observe(ens, sample_complex_gaussian(4, rng), NoiseModel.none(), rng)
    assert obs.snr_db is None


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.uniform(-0.5)
    with pytest.raises(ValueError):
        NoiseModel("bogus")
    with pytest.raises(ValueError):
        NoiseModel("none", 1.0)
    for snr_db in (8000.0, -8000.0):  # 10^(-snr_db/20) underflows to 0 / overflows
        with pytest.raises(ValueError):
            NoiseModel.gaussian(snr_db)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            NoiseModel.uniform(bad)
        with pytest.raises(ValueError):
            NoiseModel.gaussian(bad)


def test_observations_reject_negative_entries():
    with pytest.raises(ValueError):
        Observations(b=np.array([1.0, -0.1]), noise=NoiseModel.none())


def test_operator_norm_single_unit_row():
    rng = RngStream(215)
    row = sample_complex_gaussian(7, rng)
    row = row / np.linalg.norm(row)
    ens = DenseEnsemble(row[None, :])
    est = operator_norm(ens, 30, RngStream(216))
    assert est == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_cdp_is_sqrt_l():
    for num_masks in (1, 4, 9):
        ens = CodedDiffractionEnsemble.rademacher(16, num_masks, RngStream(217))
        est = operator_norm(ens, 5, RngStream(218))
        assert est == pytest.approx(np.sqrt(num_masks), abs=1e-6)


def test_operator_norm_matches_svd_oracle():
    rng = RngStream(219)
    ens = DenseEnsemble.gaussian(8, 16, rng)
    top_singular = np.linalg.svd(ens.rows.conj(), compute_uv=False)[0]
    est = operator_norm(ens, 500, RngStream(220))
    assert est == pytest.approx(top_singular, abs=1e-6)


def test_rademacher_masks_are_signs():
    ens = CodedDiffractionEnsemble.rademacher(32, 5, RngStream(221))
    assert np.all(ens.masks.imag == 0.0)
    assert np.all(ens.masks.real**2 == 1.0)
