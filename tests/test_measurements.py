import resource
import sys

import numpy as np
import pytest

from phasemax import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    Observations,
    RngStream,
    SolverConfig,
    observe,
    sample_complex_gaussian,
    sample_rademacher,
    solve_phasemax,
)
from phasemax.experiments import _gaussian_instance
from support import (
    cdp_adjoint_reference,
    cdp_forward_reference,
    dense_gaussian_rows_reference,
    lifted_columns,
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


@pytest.mark.parametrize("mask_kind", ["rademacher", "gaussian"])
def test_cdp_kernels_match_reference_expressions(mask_kind):
    rng = RngStream(224)
    n, num_masks = 64, 5
    if mask_kind == "rademacher":
        ens = CodedDiffractionEnsemble.rademacher(n, num_masks, rng)
    else:
        ens = CodedDiffractionEnsemble(
            sample_complex_gaussian(num_masks * n, rng).reshape(num_masks, n))
    for _ in range(10):
        x = sample_complex_gaussian(n, rng)
        z = sample_complex_gaussian(ens.m, rng)
        pairs = ((ens.forward(x), cdp_forward_reference(ens.masks, x)),
                 (ens.adjoint(z), cdp_adjoint_reference(ens.masks, z)))
        for got, ref in pairs:
            if mask_kind == "rademacher":  # +/-1 masks: the same operations bit for bit
                assert np.array_equal(got, ref)
            else:  # in-place products may round differently in the last bit
                assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


def test_cdp_kernels_match_reference_expressions_when_sqrt_n_is_not_a_power_of_two():
    # The kernels scale by 1/sqrt(n) on the n-vector; at n = 48 that rounds
    # differently from the references' norm="ortho" on the m-vector.
    rng = RngStream(230)
    ens = CodedDiffractionEnsemble.rademacher(48, 5, rng)
    for _ in range(10):
        x = sample_complex_gaussian(ens.n, rng)
        z = sample_complex_gaussian(ens.m, rng)
        for got, ref in ((ens.forward(x), cdp_forward_reference(ens.masks, x)),
                         (ens.adjoint(z), cdp_adjoint_reference(ens.masks, z))):
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n, m, seed", [(128, 1024, 231), (128, 1536, 232), (7, 3, 233)])
def test_dense_gaussian_rows_match_the_one_expression_sampler(n, m, seed):
    rows = DenseEnsemble.gaussian(n, m, RngStream(seed)).rows
    ref = dense_gaussian_rows_reference(n, m, RngStream(seed))
    assert rows.tobytes() == ref.tobytes()  # the same bits, signed zeros included


def test_dense_kernels_match_reference_expressions():
    rng = RngStream(225)
    ens = DenseEnsemble.gaussian(16, 96, rng)
    for _ in range(10):
        x = sample_complex_gaussian(ens.n, rng)
        z = sample_complex_gaussian(ens.m, rng)
        for got, ref in ((ens.forward(x), ens.rows.conj() @ x), (ens.adjoint(z), ens.rows.T @ z)):
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", ["dense", "cdp"])
def test_kernel_results_belong_to_the_caller(kind):
    # A caller may overwrite a kernel's result in place; that must not reach
    # the ensemble, another call's result or the kernel's input.
    rng = RngStream(226)
    if kind == "dense":
        ens = DenseEnsemble.gaussian(12, 48, rng)
    else:
        ens = CodedDiffractionEnsemble.rademacher(12, 4, rng)
    x = sample_complex_gaussian(ens.n, rng)
    z = sample_complex_gaussian(ens.m, rng)
    for kernel, arg in ((ens.forward, x), (ens.adjoint, z)):
        arg_before = arg.copy()
        first = kernel(arg)
        expected = first.copy()
        second = kernel(arg)
        second[:] = 7.0 - 3.0j
        assert np.array_equal(first, expected)
        assert np.array_equal(kernel(arg), expected)
        assert np.array_equal(arg, arg_before)


@pytest.mark.parametrize("kind", ["dense", "cdp"])
def test_forward_into_out_returns_out_with_the_same_bits(kind):
    rng = RngStream(229)
    if kind == "dense":
        ens = DenseEnsemble.gaussian(12, 48, rng)
    else:
        ens = CodedDiffractionEnsemble.rademacher(12, 4, rng)
    buf = np.empty(ens.m, dtype=complex)
    for _ in range(3):
        x = sample_complex_gaussian(ens.n, rng)
        x_before = x.copy()
        assert ens.forward(x, out=buf) is buf
        assert np.array_equal(buf, ens.forward(x))
        assert np.array_equal(x, x_before)


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_cdp_kernels_do_not_page_fault():
    # A kernel holding two m-sized temporaries at once makes the allocator
    # hand the pages back after each call and fault them in again on the next
    # (over 600 faults a call at this size); one temporary reuses its pages.
    ens = CodedDiffractionEnsemble.rademacher(4096, 20, RngStream(227))
    rng = RngStream(228)
    x = sample_complex_gaussian(ens.n, rng)
    z = sample_complex_gaussian(ens.m, rng)
    for _ in range(3):
        ens.forward(x)
        ens.adjoint(z)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        ens.forward(x)
        ens.adjoint(z)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    one_m_vector = 16 * ens.m // resource.getpagesize()  # 320 pages of 4 KiB
    assert faults < one_m_vector


def test_lifted_gram_matches_explicit_columns():
    # 600 rows: a whole block and a partial one.
    stream = RngStream(214)
    ens = DenseEnsemble.gaussian(5, 600, stream)
    x = sample_complex_gaussian(5, stream)
    cols = lifted_columns(ens.rows, x)
    gram = ens.lifted_gram(ens.forward(x))
    assert np.allclose(gram, cols @ cols.T, rtol=0, atol=1e-12 * np.max(np.abs(gram)))
    assert CodedDiffractionEnsemble.rademacher(16, 4, stream).lifted_gram is None


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


def test_observe_gaussian_noise_huge_signal():
    # ||x*||^2 = 4e156: its square overflows a float, the SNR must not.
    ens = DenseEnsemble.gaussian(4, 16, RngStream(1))
    obs = observe(ens, np.full(4, 1e78 + 0j), NoiseModel.gaussian(30.0), RngStream(2))
    assert obs.snr_db == pytest.approx(30.0, abs=1e-9)
    with pytest.raises(ValueError):  # ||x*||^2 and so sigma overflow to inf
        observe(ens, np.full(4, 1e200 + 0j), NoiseModel.gaussian(30.0), RngStream(2))


def test_observe_refuses_signal_whose_square_overflows():
    # Refused before squaring: an overflow RuntimeWarning is an error in the
    # test suite, so squaring first and refusing the inf would fail here.
    ens = DenseEnsemble.gaussian(4, 16, RngStream(1))
    for noise in (NoiseModel.none(), NoiseModel.uniform(0.1), NoiseModel.gaussian(30.0)):
        with pytest.raises(ValueError, match="too large"):
            observe(ens, np.full(4, 1e160 + 0j), noise, RngStream(2))
    # |A x*| = 0 but ||x*||^2 overflows: only the gaussian noise level squares x*.
    blind = DenseEnsemble(np.array([[1.0, 0.0]]))
    xs = np.array([0.0, 1e160 + 0j])
    assert np.all(observe(blind, xs, NoiseModel.none(), RngStream(2)).b == 0.0)
    with pytest.raises(ValueError, match="too large"):
        observe(blind, xs, NoiseModel.gaussian(30.0), RngStream(2))


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
        Observations(b=np.array([1.0, -0.1]))


def test_operator_norm_single_unit_row():
    rng = RngStream(215)
    row = sample_complex_gaussian(7, rng)
    row = row / np.linalg.norm(row)
    ens = DenseEnsemble(row[None, :])
    assert ens.norm == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_cdp_is_sqrt_l():
    for num_masks in (1, 4, 9):
        ens = CodedDiffractionEnsemble.rademacher(16, num_masks, RngStream(217))
        assert ens.norm == pytest.approx(np.sqrt(num_masks), abs=1e-6)


def test_operator_norm_matches_svd_oracle():
    rng = RngStream(219)
    ens = DenseEnsemble.gaussian(8, 16, rng)
    top_singular = np.linalg.svd(ens.rows.conj(), compute_uv=False)[0]
    assert ens.norm == pytest.approx(top_singular, abs=1e-6)


@pytest.mark.parametrize("ratio_index, ratio", [(0, 8), (1, 12)])
def test_operator_norm_at_sweep_scale_matches_svd_oracle(ratio_index, ratio):
    # The ensembles of the gauss-sweep benchmark's first call at run seeds
    # 1-3, on run_sweep's streams.
    for seed in (1_000_000, 2_000_000, 3_000_000):
        ens = _gaussian_instance(128, ratio, NoiseModel.none(), RngStream(seed, ratio_index))[0]
        assert ens.norm == pytest.approx(np.linalg.norm(ens.rows, 2), rel=1e-12)


@pytest.mark.parametrize("n, m, stream_id", [(128, 1536, 12011), (128, 1024, 8049), (40, 12, 3)],
                         ids=["mn12", "mn8", "m-below-n"])
def test_dense_norm_is_exact_where_a_krylov_estimate_falls_short(n, m, stream_id):
    # A 20-step Lanczos estimate from a fixed start was 6.5e-3 and 1.8e-3
    # low on the first two ensembles; with m < n, A^H A is rank-deficient.
    ens = DenseEnsemble.gaussian(n, m, RngStream(77, stream_id))
    assert ens.norm == pytest.approx(np.linalg.norm(ens.rows, 2), rel=1e-12)


@pytest.mark.parametrize("ens", [DenseEnsemble(np.zeros((6, 3))),
                                 CodedDiffractionEnsemble(np.zeros((2, 3)))],
                         ids=["dense", "cdp"])
def test_operator_norm_rejects_a_zero_operator(ens):
    # An ensemble may have ||A|| = 0; the solve, which takes its step sizes
    # from ||A||, rejects it.
    with pytest.raises(ValueError, match="operator is zero"):
        solve_phasemax(ens, Observations(b=np.ones(ens.m)), np.ones(ens.n), SolverConfig())


def test_dense_ensemble_rejects_rows_whose_norm_overflows():
    with pytest.raises(ValueError, match="overflows"):
        DenseEnsemble(np.full((3, 2), 1e200))


def test_operator_norm_cdp_exact_matches_svd_oracle():
    # Non-unimodular masks: the closed form sqrt(max_j sum_l |phi_l[j]|^2) is
    # the top singular value of the materialized operator.
    masks = sample_complex_gaussian(3 * 16, RngStream(222)).reshape(3, 16)
    top_singular = np.linalg.svd(materialize_cdp_rows(masks).conj(), compute_uv=False)[0]
    assert CodedDiffractionEnsemble(masks).norm == pytest.approx(top_singular, rel=1e-12)


def test_rademacher_masks_are_signs():
    ens = CodedDiffractionEnsemble.rademacher(32, 5, RngStream(221))
    assert np.all(ens.masks.imag == 0.0)
    assert np.all(ens.masks.real**2 == 1.0)
