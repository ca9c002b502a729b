import numpy as np
import pytest

from phasemax import (
    RngStream,
    phase_align_error,
    real_inner,
    sample_complex_gaussian,
    sample_rademacher,
)


def test_real_inner_unit_vector_with_itself():
    x = np.array([1.0 + 0.0j])
    assert real_inner(x, x) == 1.0


def test_real_inner_orthogonal_pair():
    x = np.array([1.0 + 0.0j])
    y = np.array([0.0 + 1.0j])
    assert real_inner(x, y) == 0.0


def test_real_inner_matches_scalar_loop_oracle():
    rng = RngStream(101)
    x = sample_complex_gaussian(8, rng)
    y = sample_complex_gaussian(8, rng)
    acc = 0.0
    for xi, yi in zip(x, y):
        acc += (np.conj(xi) * yi).real
    assert abs(real_inner(x, y) - acc) <= 1e-14


def test_real_inner_symmetric_bilinear_norm():
    rng = RngStream(102)
    x = sample_complex_gaussian(12, rng)
    y = sample_complex_gaussian(12, rng)
    z = sample_complex_gaussian(12, rng)
    assert real_inner(x, y) == pytest.approx(real_inner(y, x), abs=1e-14)
    a, b = 0.7, -2.3
    lhs = real_inner(x, a * y + b * z)
    rhs = a * real_inner(x, y) + b * real_inner(x, z)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert real_inner(x, x) == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-13)


def test_real_inner_length_mismatch():
    with pytest.raises(ValueError):
        real_inner(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


def test_phase_align_error_quotients_global_phase():
    rng = RngStream(103)
    xs = sample_complex_gaussian(10, rng)
    xhat = np.exp(1j * np.pi / 3) * xs
    assert phase_align_error(xhat, xs) <= 1e-14


def test_phase_align_error_zero_estimate():
    rng = RngStream(104)
    xs = sample_complex_gaussian(10, rng)
    assert phase_align_error(np.zeros(10, dtype=complex), xs) == pytest.approx(1.0)


def test_phase_align_error_matches_grid_oracle():
    rng = RngStream(105)
    xs = sample_complex_gaussian(16, rng)
    xhat = sample_complex_gaussian(16, rng)
    norm_star = np.linalg.norm(xs)
    phis = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
    best = np.inf
    for chunk in np.array_split(phis, 10):
        diffs = xhat[None, :] - np.exp(1j * chunk)[:, None] * xs[None, :]
        best = min(best, np.min(np.linalg.norm(diffs, axis=1)))
    oracle = best / norm_star
    assert phase_align_error(xhat, xs) == pytest.approx(oracle, abs=1e-6)


def test_phase_align_error_unit_modulus_invariance():
    rng = RngStream(106)
    xs = sample_complex_gaussian(9, rng)
    xhat = sample_complex_gaussian(9, rng)
    base = phase_align_error(xhat, xs)
    for theta in (0.1, 1.0, 2.5, -0.7):
        omega = np.exp(1j * theta)
        assert abs(phase_align_error(omega * xhat, xs) - base) <= 1e-12
        assert abs(phase_align_error(xhat, omega * xs) - base) <= 1e-12


def test_phase_align_error_degenerate_overlap():
    xs = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    xhat = np.array([0.0 + 0.0j, 2.0 + 0.0j])  # orthogonal to xs
    expected = np.sqrt(np.linalg.norm(xhat) ** 2 + np.linalg.norm(xs) ** 2) / np.linalg.norm(xs)
    assert phase_align_error(xhat, xs) == pytest.approx(expected)


def test_phase_align_error_rejects_zero_target():
    with pytest.raises(ValueError):
        phase_align_error(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))


def test_complex_gaussian_second_moment():
    draws = sample_complex_gaussian(100_000, RngStream(107))
    mean_sq = np.mean(np.abs(draws) ** 2)
    assert 0.99 <= mean_sq <= 1.01


def test_complex_gaussian_real_part_variance():
    n = 100_000
    draws = sample_complex_gaussian(n, RngStream(108))
    var = np.var(draws.real, ddof=1)
    se = 0.5 * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.5) <= 3 * se


def test_complex_gaussian_determinism():
    a = sample_complex_gaussian(64, RngStream(109, 5))
    b = sample_complex_gaussian(64, RngStream(109, 5))
    assert np.array_equal(a, b)
    c = sample_complex_gaussian(64, RngStream(109, 6))
    assert not np.array_equal(a, c)


def test_complex_gaussian_rows_are_calls_in_turn():
    # Real part then imaginary part of each vector, as sqrt(1/2) (g_re + i g_im).
    stack = sample_complex_gaussian(5, RngStream(112), rows=7)
    one_at_a_time = RngStream(112)
    g = one_at_a_time.generator
    expected = [np.sqrt(0.5) * (g.standard_normal(5) + 1j * g.standard_normal(5)) for _ in range(7)]
    assert stack.shape == (7, 5)
    assert stack.tobytes() == np.array(expected).tobytes()
    assert [sample_complex_gaussian(5, one_at_a_time).tobytes()] \
        == [sample_complex_gaussian(5, RngStream(112), rows=8)[7].tobytes()]


def test_rademacher_support_and_symmetry():
    draws = sample_rademacher(100_000, RngStream(110))
    assert np.all(draws.imag == 0.0)
    assert np.all(draws.real**2 == 1.0)
    assert -0.02 <= np.mean(draws.real) <= 0.02


def test_rademacher_determinism():
    a = sample_rademacher(128, RngStream(111, 3))
    b = sample_rademacher(128, RngStream(111, 3))
    assert np.array_equal(a, b)


def test_sampling_rejects_bad_length():
    with pytest.raises(ValueError):
        sample_complex_gaussian(0, RngStream(1))
    with pytest.raises(ValueError):
        sample_rademacher(0, RngStream(1))


def test_rng_stream_rejects_a_negative_seed_or_stream_id():
    with pytest.raises(ValueError, match="seed"):
        RngStream(-1)
    with pytest.raises(ValueError, match="stream_id"):
        RngStream(1, -2)
