import math

import mpmath
import numpy as np
import pytest

from phasemax import (
    DenseEnsemble,
    GeometryContext,
    RngStream,
    check_certificate,
    empirical_pmin,
    in_C_delta,
    in_Cprime_delta,
    in_R_delta,
    measurement_cut_probability,
    pmin_lower_bound,
    rayleigh_normal_cdf,
    sample_complex_gaussian,
    sample_complexity,
    sauer_bound,
    sauer_bound_loose,
    vc_deviation_bound,
)
from support import cut_hits_reference, cut_probability_reference


def unit_vector(n, seed):
    v = sample_complex_gaussian(n, RngStream(seed))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- closed form


def test_rayleigh_normal_cdf_symmetric_point():
    assert rayleigh_normal_cdf(0.0, 0.0) == 0.5


def test_rayleigh_normal_cdf_negative_beta_value():
    expected = 0.5 * math.exp(-1.0)
    assert rayleigh_normal_cdf(0.0, -1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha,beta", [(0.0, -1.0), (1.0, 0.5)])
def test_rayleigh_normal_cdf_vs_monte_carlo(alpha, beta):
    n = 10_000_000
    g = RngStream(501).generator
    v = g.rayleigh(1.0, n)
    gauss = g.standard_normal(n)
    emp = np.mean(alpha * v + beta / v > gauss)
    p = rayleigh_normal_cdf(alpha, beta)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p - emp) <= 4 * se


def test_rayleigh_normal_cdf_matches_quadrature():
    # F(alpha, beta) = P(alpha v + beta / v > g) against the quadrature of its
    # defining integral, which test_verify_quadrature_matches_mpmath pins to
    # mpmath, and F(alpha, 0) against its exact value (s + alpha) / (2s).
    from phasemax.experiments import _rayleigh_normal_quadrature

    for alpha, beta in [(0.0, -1.0), (1.0, 0.5), (-2.0, 0.0), (-0.5, 0.0), (0.5, 0.0), (2.0, 0.0)]:
        value = rayleigh_normal_cdf(alpha, beta)
        assert abs(value - _rayleigh_normal_quadrature(alpha, beta)) <= 1e-12
        if beta == 0.0:
            s = math.hypot(alpha, 1.0)
            assert value == pytest.approx((s + alpha) / (2 * s), rel=1e-12)


def test_rayleigh_normal_cdf_branch_continuity():
    for alpha in np.linspace(-10.0, 10.0, 401):
        left = rayleigh_normal_cdf(alpha, -1e-300)  # beta<0 branch at its limit
        right = rayleigh_normal_cdf(alpha, 0.0)
        assert abs(left - right) <= 1e-12


def test_rayleigh_normal_cdf_monotone_and_in_range():
    alphas = np.linspace(-8.0, 8.0, 33)
    betas = np.linspace(-4.0, 4.0, 33)
    vals = np.array([[rayleigh_normal_cdf(a, b) for b in betas] for a in alphas])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals, axis=0) >= -1e-12)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_rayleigh_normal_cdf_f0_identity_vs_monte_carlo():
    n = 2_000_000
    g = RngStream(502).generator
    v = g.rayleigh(1.0, n)
    gauss = g.standard_normal(n)
    for alpha in (-2.0, -0.5, 0.5, 2.0):
        s = math.hypot(alpha, 1.0)
        f0 = (s + alpha) / (2 * s)
        assert rayleigh_normal_cdf(alpha, 0.0) == pytest.approx(f0, rel=1e-12)
        emp = np.mean(alpha * v > gauss)
        se = math.sqrt(f0 * (1 - f0) / n)
        assert abs(f0 - emp) <= 4 * se


# The closed-forms verify suite checks rayleigh_normal_cdf against its own
# quadrature; this checks that quadrature against mpmath on the same integral,
# including the thin layer near v = 0 that beta = +-0.1 puts in the integrand.
@pytest.mark.parametrize("alpha, beta", [(-6.0, 0.1), (6.0, -0.1), (-6.0, -0.1), (6.0, 0.1),
                                         (0.0, 0.1), (0.0, -0.1), (-2.0, 1.0), (0.5, -3.0)])
def test_verify_quadrature_matches_mpmath(alpha, beta):
    from phasemax.experiments import _rayleigh_normal_quadrature

    with mpmath.workdps(30):
        def integrand(v):
            return mpmath.ncdf(alpha * v + beta / v) * v * mpmath.exp(-v * v / 2)

        expected = float(mpmath.quad(integrand, [0, abs(beta), 1, 4, mpmath.inf]))
    assert abs(_rayleigh_normal_quadrature(alpha, beta) - expected) <= 1e-13


def test_rayleigh_normal_cdf_rejects_non_finite():
    with pytest.raises(ValueError):
        rayleigh_normal_cdf(math.nan, 0.0)
    with pytest.raises(ValueError):
        rayleigh_normal_cdf(0.0, math.inf)


def test_rayleigh_normal_cdf_at_extreme_alpha():
    # s + |alpha| overflows once |alpha| > 9e307. For fixed beta the value
    # tends to 0 as alpha -> -inf and to 1 as alpha -> +inf; with
    # beta = -alpha it is P(v > 1) = e^(-1/2) at every scale.
    big = np.finfo(np.float64).max
    for beta in (-1.0, 0.0, 1.0):
        for alpha in (-1e308, -big):
            assert rayleigh_normal_cdf(alpha, beta) == 0.0
        for alpha in (1e308, big):
            assert rayleigh_normal_cdf(alpha, beta) == 1.0
    for alpha in (1e308, big):
        assert rayleigh_normal_cdf(alpha, -alpha) == pytest.approx(math.exp(-0.5), rel=1e-15)


# ------------------------------------------------------------ pmin lower bound


def test_pmin_lower_bound_vanishes_for_small_delta():
    assert pmin_lower_bound(1e-8, 1.0) == 0.0
    assert pmin_lower_bound(0.05, 1.0) <= 1e-100
    # delta^2 underflows to 0 here.
    assert pmin_lower_bound(1e-170, 1.0) == 0.0
    assert pmin_lower_bound(1e-170, 1e-300) == 0.0


def test_pmin_lower_bound_delta_one_vs_high_precision():
    value = pmin_lower_bound(1.0, 1.0)
    with mpmath.workdps(50):
        expected = mpmath.mpf("0.5") * mpmath.e ** (-2 * mpmath.sqrt(2))
    assert value == pytest.approx(float(expected), rel=1e-14)


def test_pmin_lower_bound_monotone_in_t():
    values = [pmin_lower_bound(0.8, t) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    for prev, nxt in zip(values, values[1:]):
        assert nxt < prev
    for v in values:
        assert 0.0 <= v <= 0.5


def test_pmin_lower_bound_domain():
    with pytest.raises(ValueError):
        pmin_lower_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        pmin_lower_bound(1.2, 1.0)
    with pytest.raises(ValueError):
        pmin_lower_bound(0.5, 0.0)


@pytest.mark.parametrize("delta, t", [(0.5, math.nan), (0.5, math.inf)])
def test_pmin_lower_bound_rejects_non_finite(delta, t):
    with pytest.raises(ValueError):
        pmin_lower_bound(delta, t)


# ------------------------------------------------------------------ predicates


def test_in_R_delta_trivial_cases():
    xs = unit_vector(6, 503)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0)
    assert in_R_delta(xs, ctx)
    assert not in_R_delta(1j * xs, ctx)


def test_in_R_delta_matches_projection_oracle():
    xs = unit_vector(6, 504)
    ctx = GeometryContext(xstar=xs, delta=0.7, t=1.0)
    projector = np.eye(6) - np.outer(xs, xs.conj())
    stream = RngStream(505)
    for _ in range(300):
        h = sample_complex_gaussian(6, stream)
        perp = projector @ h
        expected = np.linalg.norm(perp) >= ctx.delta * abs(np.vdot(xs, h).imag)
        assert in_R_delta(h, ctx) == expected


def test_in_C_delta_trivial_cases():
    xs = unit_vector(5, 506)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0)
    assert in_C_delta(xs, ctx)
    y = sample_complex_gaussian(5, RngStream(507))
    y_perp = y - np.vdot(xs, y) * xs
    assert not in_C_delta(y_perp, ctx)


def test_in_C_delta_mixture_threshold():
    xs = unit_vector(5, 508)
    u = sample_complex_gaussian(5, RngStream(509))
    u = u - np.vdot(xs, u) * xs
    u = u / np.linalg.norm(u)
    for delta in (0.3, 0.6, 0.9):
        ctx = GeometryContext(xstar=xs, delta=delta, t=1.0)
        for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
            y = xs + eps * u
            expected = 1.0 / math.sqrt(1.0 + eps**2) >= delta
            assert in_C_delta(y, ctx) == expected


def test_in_Cprime_delta_trivial_cases():
    xs = unit_vector(5, 510)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0)
    z = sample_complex_gaussian(5, RngStream(511))
    if np.vdot(xs, z).real < 0:
        z = -z
    assert in_Cprime_delta(z, ctx)
    assert not in_Cprime_delta(-xs, ctx)


def test_in_Cprime_delta_matches_decomposition_oracle():
    xs = unit_vector(7, 512)
    stream = RngStream(513)
    for delta in (0.2, 0.5, 0.8):
        ctx = GeometryContext(xstar=xs, delta=delta, t=1.0)
        for _ in range(200):
            z = sample_complex_gaussian(7, stream)
            overlap = np.vdot(xs, z)
            z_perp = z - overlap * xs
            lhs = delta * overlap.real
            rhs = -math.sqrt(1 - delta**2) * np.linalg.norm(z_perp)
            assert in_Cprime_delta(z, ctx) == (lhs >= rhs)


def test_C_subset_of_Cprime():
    xs = unit_vector(6, 514)
    stream = RngStream(515)
    for delta in (0.1, 0.5, 0.9):
        ctx = GeometryContext(xstar=xs, delta=delta, t=1.0)
        for _ in range(200):
            y = sample_complex_gaussian(6, stream)
            if in_C_delta(y, ctx):
                assert in_Cprime_delta(y, ctx)


def test_geometry_context_normalizes_and_validates():
    xs = 3.0 * unit_vector(4, 516)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0)
    assert np.linalg.norm(ctx.xstar) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        GeometryContext(xstar=np.zeros(4, dtype=complex), delta=0.5, t=1.0)
    with pytest.raises(ValueError):
        GeometryContext(xstar=xs, delta=1.0, t=1.0)
    with pytest.raises(ValueError):
        GeometryContext(xstar=xs, delta=0.5, t=-1.0)
    with pytest.raises(ValueError):
        GeometryContext(xstar=xs, delta=0.5, t=1.0, eta_inv=-0.1)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_geometry_context_normalizes_where_the_norm_over_or_underflows(scale):
    ctx = GeometryContext(xstar=np.array([scale, scale]), delta=0.5, t=1.0)
    np.testing.assert_allclose(ctx.xstar, np.array([1.0, 1.0]) / math.sqrt(2.0), rtol=1e-15)
    assert in_C_delta(ctx.xstar, ctx)


@pytest.mark.parametrize("field", ["t", "eta_inv"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_context_rejects_non_finite(field, value):
    kwargs = dict(xstar=unit_vector(4, 516), delta=0.5, t=1.0, eta_inv=1e-3)
    kwargs[field] = value
    with pytest.raises(ValueError):
        GeometryContext(**kwargs)


# ----------------------------------------------------------------- certificate


def test_certificate_anchor_negative_direction():
    stream = RngStream(517)
    xs = unit_vector(6, 518)
    ens = DenseEnsemble.gaussian(6, 30, stream)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0)
    a0 = sample_complex_gaussian(6, stream)
    report = check_certificate(-a0, a0, ens, ctx)
    assert not report.anchor_inequality_holds
    assert report.certified_excluded


def test_certificate_anchor_aligned_direction_noiseless():
    stream = RngStream(519)
    xs = unit_vector(6, 520)
    ens = DenseEnsemble.gaussian(6, 30, stream)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0, eta_inv=0.0)
    a0 = sample_complex_gaussian(6, stream)
    h = 0.7 * a0
    report = check_certificate(h, a0, ens, ctx)
    assert report.anchor_inequality_holds
    vals = (np.conj(ens.forward(ctx.xstar)) * ens.forward(h)).real
    assert report.certified_excluded == bool(np.any(vals > 0.0))


def test_certificate_matches_scalar_loop():
    stream = RngStream(521)
    xs = unit_vector(5, 522)
    ens = DenseEnsemble.gaussian(5, 20, stream)
    ctx = GeometryContext(xstar=xs, delta=0.5, t=1.0, eta_inv=0.05)
    a0 = sample_complex_gaussian(5, stream)
    for _ in range(50):
        h = sample_complex_gaussian(5, stream)
        report = check_certificate(h, a0, ens, ctx)
        first = None
        for i in range(ens.m):
            a_i = ens.rows[i]
            val = (np.conj(np.vdot(a_i, ctx.xstar)) * np.vdot(a_i, h)).real
            if val > 0.5 * ctx.eta_inv:
                first = i
                break
        anchor_ok = np.vdot(a0, h).real >= 0
        assert report.first_violated_constraint == first
        assert report.anchor_inequality_holds == anchor_ok
        assert report.certified_excluded == ((not anchor_ok) or first is not None)
        assert report.in_R_delta == in_R_delta(h, ctx)


# -------------------------------------------------------------- empirical pmin


def test_cut_probability_forced_direction_exponential_oracle():
    xs = unit_vector(8, 523)
    eta_inv = 1e-3
    ctx = GeometryContext(xstar=xs, delta=0.9, t=10.0, eta_inv=eta_inv)
    c = 5e-3  # ||h|| well above the threshold eta_inv / t = 1e-4
    h = c * xs
    num_a = 200_000
    est = measurement_cut_probability(ctx, h, num_a, RngStream(524))
    expected = math.exp(-eta_inv / (2 * c))  # |a^H xstar|^2 ~ Exponential(1)
    se = math.sqrt(expected * (1 - expected) / num_a)
    assert abs(est - expected) <= 4 * se


def cut_direction(kind, xs, stream, norm=2e-3):
    """A direction of the given norm parallel to xs, orthogonal to xs, or drawn
    at random; its overlap with xs has a non-negative real part, so that its
    cut probability is not tiny."""
    if kind == "parallel":
        return norm * (1.0 + 0.5j) / abs(1.0 + 0.5j) * xs
    h = sample_complex_gaussian(xs.shape[0], stream)
    if kind == "perp":
        h = h - np.vdot(xs, h) * xs
    elif np.vdot(xs, h).real < 0:
        h = -h
    return h * (norm / np.linalg.norm(h))


# C^1 has no nonzero direction orthogonal to xstar.
@pytest.mark.parametrize("n, kind", [(n, kind) for n in (1, 8, 64)
                                     for kind in ("parallel", "perp", "general")
                                     if (n, kind) != (1, "perp")])
def test_cut_probability_matches_full_dimensional_reference(n, kind):
    stream = RngStream(532, n)
    ctx = GeometryContext(xstar=unit_vector(n, 533), delta=0.9, t=1.0, eta_inv=1e-3)
    h = cut_direction(kind, ctx.xstar, stream)
    num_a = 100_000
    est = measurement_cut_probability(ctx, h, num_a, RngStream(534, n))
    ref = cut_probability_reference(ctx, h, num_a, RngStream(535, n))
    pooled = 0.5 * (est + ref)
    se_diff = math.sqrt(2.0 * pooled * (1.0 - pooled) / num_a)
    assert 0.05 < pooled < 0.95
    assert abs(est - ref) <= 4 * se_diff


def test_cut_probability_orthogonal_direction_laplace_oracle():
    # For h orthogonal to xstar the cut value is ||h|| Re(conj(u) z) with u, z
    # i.i.d. CN(0, 1), and Re(conj(u) z) is Laplace with scale 1/2.
    xs = unit_vector(8, 536)
    eta_inv = 1e-3
    ctx = GeometryContext(xstar=xs, delta=0.9, t=1.0, eta_inv=eta_inv)
    h = cut_direction("perp", xs, RngStream(537))
    num_a = 200_000
    est = measurement_cut_probability(ctx, h, num_a, RngStream(538))
    expected = 0.5 * math.exp(-eta_inv / np.linalg.norm(h))
    se = math.sqrt(expected * (1 - expected) / num_a)
    assert abs(est - expected) <= 4 * se


def test_cut_probability_imaginary_multiple_of_truth_is_zero():
    # h = i c xstar gives Re(conj(u) i c u) = 0, never above a positive threshold.
    xs = unit_vector(8, 539)
    ctx = GeometryContext(xstar=xs, delta=0.9, t=1.0, eta_inv=1e-3)
    assert measurement_cut_probability(ctx, 5e-3j * xs, 100_000, RngStream(540)) == 0.0


def test_cut_hits_shared_sample_matches_each_direction_alone():
    # 300,000 draws span two blocks of _CUT_CHUNK.
    from phasemax.theory import _cut_hits

    stream = RngStream(541)
    ctx = GeometryContext(xstar=unit_vector(8, 542), delta=0.9, t=1.0, eta_inv=1e-3)
    hs = [cut_direction(kind, ctx.xstar, stream) for kind in ("parallel", "perp", "general")]
    num_a = 300_000
    shared = _cut_hits(ctx, hs, num_a, RngStream(543))
    alone = [int(_cut_hits(ctx, [h], num_a, RngStream(543))[0]) for h in hs]
    assert shared.tolist() == alone
    assert [measurement_cut_probability(ctx, h, num_a, RngStream(543)) for h in hs] \
        == [k / num_a for k in alone]


def test_cut_hits_do_not_depend_on_the_sub_block():
    from phasemax.theory import _CUT_CHUNK, _CUT_SUB, _cut_hits

    num_a = 300_001  # two blocks of _CUT_CHUNK, neither a multiple of _CUT_SUB
    assert _CUT_CHUNK < num_a < 2 * _CUT_CHUNK
    assert _CUT_CHUNK % _CUT_SUB == 0 and (num_a - _CUT_CHUNK) % _CUT_SUB != 0
    stream = RngStream(544)
    ctx = GeometryContext(xstar=unit_vector(8, 545), delta=0.9, t=1.0, eta_inv=1e-3)
    hs = np.array([cut_direction(kind, ctx.xstar, stream, norm)
                   for kind in ("parallel", "perp", "general") for norm in (1e-3, 2e-3, 1e-2)])
    hits = _cut_hits(ctx, hs, num_a, RngStream(546))
    assert hits.tolist() == cut_hits_reference(ctx, hs, num_a, RngStream(546)).tolist()
    assert 0 < hits.min() and hits.max() < num_a


def test_scalar_predicates_are_their_batched_forms_row_by_row():
    from phasemax.theory import _in_C, _in_Cprime, _in_R

    stream = RngStream(547)
    for delta in (0.1, 0.6, 0.99):
        ctx = GeometryContext(xstar=sample_complex_gaussian(8, stream), delta=delta, t=1.0)
        scales = stream.generator.uniform(0.01, 3.0, (300, 1))
        hs = np.concatenate([sample_complex_gaussian(8, stream, rows=300) * scales,
                             [ctx.xstar, 1j * ctx.xstar, -ctx.xstar]])
        for scalar, batched in ((in_R_delta, _in_R), (in_C_delta, _in_C),
                                (in_Cprime_delta, _in_Cprime)):
            rows = batched(ctx, hs)
            assert [scalar(h, ctx) for h in hs] == rows.tolist()
            assert 0 < rows.sum() < len(hs)


def test_empirical_pmin_dominates_lemma_bound_small_scale():
    xs = unit_vector(8, 525)
    ctx = GeometryContext(xstar=xs, delta=0.99, t=0.1, eta_inv=1e-3)
    est = empirical_pmin(ctx, num_h=25, num_a=20_000, rng=RngStream(526))
    bound = pmin_lower_bound(0.99, 0.1)
    se = math.sqrt(max(est * (1 - est), 1.0 / 20_000) / 20_000)
    assert est >= bound - 4 * se


def test_empirical_pmin_determinism():
    xs = unit_vector(6, 527)
    ctx = GeometryContext(xstar=xs, delta=0.8, t=5.0, eta_inv=1e-2)
    a = empirical_pmin(ctx, num_h=10, num_a=5_000, rng=RngStream(528))
    b = empirical_pmin(ctx, num_h=10, num_a=5_000, rng=RngStream(528))
    assert a == b


def test_empirical_pmin_gives_up_after_1000_attempts_a_direction():
    # With n = 1 and xstar = 1, h - (x^H h) x is exactly 0, so R_delta holds
    # only where Im(h) = 0, which no Gaussian draw hits. Each attempt draws
    # two normals; the budget is 1000 attempts per direction.
    ctx = GeometryContext(xstar=np.array([1.0]), delta=0.5, t=1.0, eta_inv=1e-3)
    rng = RngStream(531)
    with pytest.raises(RuntimeError, match="0/2 directions after 2000 attempts"):
        empirical_pmin(ctx, num_h=2, num_a=100, rng=rng)
    reference = RngStream(531)
    reference.generator.standard_normal(4000)
    assert rng.generator.bit_generator.state == reference.generator.bit_generator.state


def test_empirical_pmin_stacks_stop_at_the_attempt_budget(monkeypatch):
    # Only the very first attempt is accepted. The stacks then hold 3, then
    # 2 attempts each, so after 2,999 one attempt of the 3,000 is left for
    # two missing directions: the last stack must hold one.
    from phasemax import theory

    stacks = []

    def first_attempt_only(ctx, hs):
        keep = np.zeros(len(hs), dtype=bool)
        keep[0] = not stacks
        stacks.append(len(hs))
        return keep

    monkeypatch.setattr(theory, "_in_Cprime", lambda ctx, hs: np.ones(len(hs), dtype=bool))
    monkeypatch.setattr(theory, "_in_R", first_attempt_only)
    ctx = GeometryContext(xstar=unit_vector(8, 532), delta=0.5, t=1.0, eta_inv=1e-3)
    rng = RngStream(533)
    with pytest.raises(RuntimeError, match="1/3 directions after 3000 attempts"):
        empirical_pmin(ctx, num_h=3, num_a=100, rng=rng)
    assert stacks[0] == 3 and stacks[-1] == 1 and sum(stacks) == 3000
    reference = RngStream(533)
    reference.generator.standard_normal(3000 * 16)
    assert rng.generator.bit_generator.state == reference.generator.bit_generator.state


def test_empirical_pmin_rejects_noiseless_context():
    xs = unit_vector(6, 529)
    ctx = GeometryContext(xstar=xs, delta=0.8, t=5.0, eta_inv=0.0)
    with pytest.raises(ValueError):
        empirical_pmin(ctx, num_h=5, num_a=100, rng=RngStream(530))


def noiseless_anchored_instance(stream, n=4, m=32):
    """Unit truth xs, a dense Gaussian ensemble, its noiseless observations and
    an anchor a0 correlated with xs (a0^H xs real positive), drawn from stream."""
    from phasemax import NoiseModel, observe

    xs = sample_complex_gaussian(n, stream)
    xs = xs / np.linalg.norm(xs)
    ens = DenseEnsemble.gaussian(n, m, stream)
    obs = observe(ens, xs, NoiseModel.none(), stream)
    a0 = xs + 0.3 * sample_complex_gaussian(n, stream)
    a0 = a0 * np.exp(-1j * np.angle(np.vdot(a0, xs)))
    return xs, ens, obs, a0


@pytest.mark.parametrize("max_iters,converged", [(10_000, True), (100, False)])
def test_certificate_cuts_never_exclude_error_direction_at_feasibility_width(
    max_iters, converged
):
    # The premise the exclusion test relies on: for noiseless data no cut
    # excludes h = x - x* once eta_inv covers x's feasibility residual. On this
    # instance the relaxation is not tight, and the converged estimate is
    # feasible only to ~1e-9, which a zero threshold does not absorb.
    from phasemax import feasibility_residual, solve_phasemax
    from phasemax.solver import SolverConfig

    xs, ens, obs, a0 = noiseless_anchored_instance(RngStream(531, 19))
    sol = solve_phasemax(ens, obs, a0, SolverConfig(max_iters=max_iters))
    assert sol.converged == converged
    x = sol.xhat
    xs_rep = np.exp(1j * np.angle(np.vdot(xs, x))) * xs
    feas = feasibility_residual(ens, obs, x)
    assert feas > 0.0
    ctx = GeometryContext(xstar=xs_rep, delta=0.5, t=1.0, eta_inv=feas)
    assert check_certificate(x - xs_rep, a0, ens, ctx).first_violated_constraint is None


def test_certificate_exclusion_implies_solver_accuracy():
    # Sampled form of the exclusion guarantee: when every sampled direction
    # h in R_delta with ||h|| > error_radius is certified excluded, the solver
    # estimate must lie within error_radius (plus solver tolerance) of truth.
    # The sample pool includes the solver's own phase-aligned error direction
    # h = xhat - x*, so the premise is adversarial rather than blind.
    #
    # For noiseless data b_i = |a_i^H x*|^2, and expanding |a_i^H (x* + h)|^2
    # gives, for any x = x* + h,
    #     Re(conj(a_i^H x*) a_i^H h) = (|a_i^H x|^2 - b_i - |a_i^H h|^2) / 2
    #                                <= feasibility_residual(x) / 2.
    # The solver returns xhat feasible only to sol.feas_residual, not exactly,
    # so with eta_inv = 0 a cut can exclude its own h by a rounding-sized
    # margin. xhat is exactly feasible for the slabs b_i + feas_residual, and
    # x* is too; eta_inv = sol.feas_residual is the tightest threshold at
    # which the certificate provably cannot exclude h through a cut.
    from phasemax import phase_align_error, solve_phasemax
    from phasemax.solver import SolverConfig

    error_radius = 1e-3
    premise_held = 0
    for trial in range(20):
        stream = RngStream(531, trial)
        xs, ens, obs, a0 = noiseless_anchored_instance(stream)
        n = ens.n

        sol = solve_phasemax(ens, obs, a0, SolverConfig(max_iters=10_000))
        err = phase_align_error(sol.xhat, xs)
        # Work in the frame of the best-aligned representative of the truth,
        # where the error direction provably satisfies every inequality.
        xs_rep = np.exp(1j * np.angle(np.vdot(xs, sol.xhat))) * xs
        ctx = GeometryContext(xstar=xs_rep, delta=0.5, t=1.0, eta_inv=sol.feas_residual)
        candidates = [sol.xhat - xs_rep]
        for _ in range(100):
            h = sample_complex_gaussian(n, stream)
            norm = 10.0 ** stream.generator.uniform(np.log10(1.001 * error_radius), 0.3)
            candidates.append(h * (norm / np.linalg.norm(h)))

        all_excluded = True
        for h in candidates:
            if np.linalg.norm(h) <= error_radius or not in_R_delta(h, ctx):
                continue
            if not check_certificate(h, a0, ens, ctx).certified_excluded:
                all_excluded = False
                break
        if all_excluded:
            premise_held += 1
            assert err <= error_radius + 1e-6
    assert premise_held >= 10  # the implication must actually be exercised


# -------------------------------------------------------------------- VC tools


def test_sauer_bound_full_shattering():
    for n in (1, 2, 3, 5):
        assert sauer_bound(n, n) == 2**n
        assert sauer_bound(n, n + 3) == 2**n


def test_sauer_bound_spot_value():
    assert sauer_bound(4, 2) == 1 + 4 + 6


def test_sauer_relaxation_dominates():
    for n in range(4, 65, 2):
        for d in range(2, 9):
            if n > d:
                assert sauer_bound(n, d) <= sauer_bound_loose(n, d)


def test_vc_deviation_bound_at_zero():
    assert vc_deviation_bound(10, 7.0, 0.0) == pytest.approx(56.0, rel=1e-14)


def test_vc_deviation_bound_doubling_law():
    b1 = vc_deviation_bound(250, 42.0, 0.3)
    b2 = vc_deviation_bound(500, 42.0, 0.3)
    assert b2 / b1 == pytest.approx(math.exp(-250 * 0.09 / 8), rel=1e-12)


def test_vc_deviation_bound_vs_high_precision():
    n, d, t = 1000, 64, 0.2
    shatter = sauer_bound_loose(n, d)
    value = vc_deviation_bound(n, shatter, t)
    with mpmath.workdps(60):
        sh = (mpmath.e * n / d) ** d
        expected = 8 * sh * mpmath.e ** (-n * mpmath.mpf(t) ** 2 / 8)
    assert value == pytest.approx(float(expected), rel=1e-10)


def test_vc_deviation_bound_domain():
    with pytest.raises(ValueError):
        vc_deviation_bound(0, 2.0, 0.1)
    with pytest.raises(ValueError):
        vc_deviation_bound(10, 0.5, 0.1)
    with pytest.raises(ValueError):
        vc_deviation_bound(10, 2.0, -0.1)


@pytest.mark.parametrize("shatter, t", [(math.nan, 0.1), (2.0, math.nan), (2.0, math.inf)])
def test_vc_deviation_bound_rejects_non_finite(shatter, t):
    with pytest.raises(ValueError):
        vc_deviation_bound(10, shatter, t)
    assert vc_deviation_bound(10, math.inf, 0.1) == math.inf


# ----------------------------------------------------------- sample complexity


def test_sample_complexity_inverse_square_scaling():
    m1 = sample_complexity(0.1, 100, 0.1)
    m2 = sample_complexity(0.05, 100, 0.1)
    ratio = m2 / m1
    assert 4.0 <= ratio <= 5.0  # 1/p^2 plus a log factor


def test_sample_complexity_from_pmin_vs_high_precision():
    p = pmin_lower_bound(0.9, 10.0)
    m = sample_complexity(p, 500, 0.01)
    with mpmath.workdps(60):
        pm = mpmath.mpf("0.5") * (1 - mpmath.sqrt(1 - mpmath.mpf("0.81"))) \
            * mpmath.e ** (-2 * mpmath.sqrt(2) * 10 / mpmath.mpf("0.81"))
        c = 2 * mpmath.log(8 * mpmath.e / pm**2)
        expected = mpmath.ceil(8 / pm**2 * (c * 1000 + 2 * mpmath.log(800)))
    assert m == pytest.approx(float(expected), rel=1e-9)


@pytest.mark.parametrize("p_min", [1e-155, 1e-170, pmin_lower_bound(0.0205, 0.1)],
                         ids=["1e-155", "1e-170", "paper-chain"])
def test_sample_complexity_past_the_float_range(p_min):
    # p_min^2 is subnormal at 1e-155 and 0 at 1e-170; the bound at the
    # paper's delta = 0.0205 is about 5e-297.
    with pytest.raises(ValueError, match="float range"):
        sample_complexity(p_min, 128, 0.1)


def test_sample_complexity_domain():
    with pytest.raises(ValueError):
        sample_complexity(0.0, 10, 0.1)
    with pytest.raises(ValueError):
        sample_complexity(1.0, 10, 0.1)
    with pytest.raises(ValueError):
        sample_complexity(0.5, 0, 0.1)
    with pytest.raises(ValueError):
        sample_complexity(0.5, 10, 1.0)
