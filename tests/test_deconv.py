import numpy as np
import pytest
from scipy.ndimage import correlate, gaussian_filter

import nsdeblur as nd
from nsdeblur.config import (STOP_CAP, STOP_EPS, STOP_GATE, STOP_INCREASE,
                             OptimizerConfig, make_report)


def test_deconvolve_once_delta_identity():
    rng = np.random.default_rng(0)
    img = rng.random((16, 16))
    np.testing.assert_array_equal(nd.deconvolve_once(img, nd.delta_kernel(3)),
                                  img)


def test_bvdr_sharp_delta_fixed_point():
    img = nd.texture((64, 64), seed=1)
    delta = nd.delta_kernel(3)
    out, rep = nd.bvdr_optimize(img, delta, delta)
    np.testing.assert_allclose(out, img, atol=1e-12)
    assert rep.iterations == 1 and rep.stop_reason == STOP_EPS
    assert rep.lambda_trace[0] == 0.0


def test_cs_sharp_delta_fixed_point():
    img = nd.texture((64, 64), seed=2)
    delta = nd.delta_kernel(3)
    out, rep = nd.cs_optimize(img, delta, delta)
    np.testing.assert_allclose(out, img, atol=1e-12)
    assert rep.iterations == 1 and rep.stop_reason == STOP_EPS
    assert rep.lambda_trace[0] == pytest.approx(0.0, abs=1e-20)


def test_bvdr_lambda_finite_nonnegative_and_bounded(gaussian_case):
    case = gaussian_case
    out, rep = nd.bvdr_optimize(case.blurred, case.psf, case.ipsf_spectral)
    assert np.all(np.isfinite(rep.lambda_trace))
    assert np.all(rep.lambda_trace >= 0.0)
    assert np.all(rep.lambda_trace <= 0.01 + 1e-15)
    assert np.all(np.isfinite(out))
    assert rep.stop_reason in (STOP_EPS, STOP_INCREASE, STOP_CAP)


def test_bvdr_monotone_residual_until_stop(gaussian_case):
    case = gaussian_case
    smooth = gaussian_filter(case.clean, 2.0)
    x = nd.convolve(smooth, nd.gaussian_kernel(0.6, 5))
    basis = nd.compute_cns(nd.build_operator(nd.estimate_ar(x, 13, 13), 9, 9))
    h, _ = nd.optimize_psf(
        nd.estimate_psf(nd.gradient_stats(x, basis), basis), basis)
    g = nd.ipsf_spectral(h, basis)
    out, rep = nd.bvdr_optimize(x, h, g)
    res = rep.residual_trace
    cut = len(res) - 1 if rep.stop_reason == STOP_INCREASE else len(res)
    assert all(res[t + 1] < res[t] for t in range(cut - 1))
    assert rep.stop_reason in (STOP_EPS, STOP_CAP, STOP_INCREASE)
    assert rep.iterations <= 20


def test_cs_best_seen_returned_on_increase():
    # a deliberately unstable configuration: large step on rough data
    img = nd.texture((64, 64), seed=3, rolloff=1.0)
    x = nd.convolve(img, nd.gaussian_kernel(1.0, 5))
    h = nd.gaussian_kernel(1.0, 5)
    sharpen = -np.ones((3, 3)) / 4.0
    sharpen[1, 1] = 3.0
    cfg = OptimizerConfig(delta_t=1.9, max_iters=20, eps=1e-300)
    out, rep = nd.cs_optimize(x, h, nd.normalize_kernel(sharpen), cfg)
    if rep.stop_reason == STOP_INCREASE:
        best = int(np.argmin(rep.residual_trace))
        # re-run the schema manually to the best iterate and compare
        s = nd.convolve(x, nd.normalize_kernel(sharpen))
        for _ in range(best + 1):
            r = x - nd.convolve(s, h)
            lam = r * r / (2.0 * nd.metric_determinant(s))
            s = s + cfg.delta_t * (r + nd.convolve(
                lam * nd.curvature_operator(s), nd.normalize_kernel(sharpen)))
        np.testing.assert_allclose(out, s, atol=1e-12)


def test_cs_dt_bound_recorded(gaussian_case):
    case = gaussian_case
    out, rep = nd.cs_optimize(case.blurred, case.psf, case.ipsf_spectral,
                              OptimizerConfig(delta_t=0.1))
    bounds = rep.extras["dt_bound_trace"]
    assert bounds.shape[0] == rep.iterations
    assert np.all(bounds >= 0.0)


def test_cs_data_residual_bound(gaussian_case):
    """Measured convergence bound: the mean squared data residual stays
    below twice the mean metric determinant times the measured step
    ratio, within 5%."""
    case = gaussian_case
    x = case.blurred
    g = case.ipsf_spectral
    h = case.psf
    s_prev = nd.convolve(x, g)
    r_prev = x - nd.convolve(s_prev, h)
    lam = r_prev * r_prev / (2.0 * nd.metric_determinant(s_prev))
    s = s_prev + 0.1 * (r_prev + nd.convolve(
        lam * nd.curvature_operator(s_prev), g))
    r = x - nd.convolve(s, h)
    lhs = float(np.mean(r * r))
    hh_delta = float(np.mean(np.abs(correlate(
        nd.convolve(s - s_prev, h), h[::-1, ::-1], mode="nearest"))))
    curv_delta = float(np.mean(np.abs(
        np.abs(nd.curvature_operator(s))
        - np.abs(nd.curvature_operator(s_prev)))))
    rhs = 2.0 * float(np.mean(nd.metric_determinant(s))) * hh_delta / max(
        curv_delta, 1e-300)
    assert lhs <= rhs * 1.05


def test_convergence_check_geometric_and_uptick():
    """The report's convergence check: the largest consecutive residual
    ratio after the transition."""
    geo = make_report([1.0, 0.5, 0.25, 0.125], [0.0] * 4, STOP_CAP)
    assert geo.convergence_ratio_max == 0.5
    bad = make_report([1.0, 0.5, 0.6, 0.3], [0.0] * 4, STOP_CAP)
    assert bad.convergence_ratio_max == pytest.approx(1.2)


def test_convergence_check_after_transition():
    rep = make_report([1.0, 2.0, 1.0, 0.5], [0.1, 0.3, 0.2, 0.1], STOP_CAP,
                      transition_iter=1)
    assert rep.convergence_ratio_max == 0.5


def test_denoise_prefilter_improves_impulse_noise(corpus_texture):
    x = nd.convolve(corpus_texture, nd.gaussian_kernel(1.0, 5))
    noisy = nd.add_impulse_noise(x, 0.02, seed=24)
    filtered, response = nd.denoise_prefilter(noisy, 33, 33, 17, 17)
    assert response.shape == (33, 33)
    assert nd.psnr(filtered, corpus_texture) > nd.psnr(noisy, corpus_texture)


def test_denoise_prefilter_near_identity_on_clean(corpus_texture):
    filtered, _ = nd.denoise_prefilter(corpus_texture, 33, 33, 17, 17)
    rel = (np.linalg.norm(filtered - corpus_texture)
           / np.linalg.norm(corpus_texture))
    assert rel <= 0.2


# --- balanced-variation weight: carried fields against the recomputing form

def _mean_abs(a):
    return float(np.mean(np.abs(a)))


def _direct(image, kernel):
    """Direct replicate-boundary filtering, the references' convolution."""
    return correlate(image, kernel, mode="nearest")


def _reference_bvdr(image, h, g, cfg):
    """The balanced-variation loop with separate seed, recursion and
    steady-state weight rules, each re-filtering the fields it reads
    (five convolutions per iteration)."""
    conv = _direct

    def seed(s0, reg0, reg_x):
        num = _mean_abs(conv(s0 - x, h))
        den = cfg.alpha * _mean_abs(conv(reg0, g))
        if not np.isfinite(den) or den <= 0.0:
            return np.nan
        arg = _mean_abs(conv(reg0 - reg_x, g)) / den
        with np.errstate(over="ignore"):
            grow = np.expm1(arg)
        if not np.isfinite(grow) or grow <= 0.0:
            return np.nan
        return num / den / grow

    def update(lam_prev, s, s_prev, reg, reg_prev):
        den = cfg.delta_t * _mean_abs(conv(reg, g))
        if not np.isfinite(den) or den <= 0.0:
            return np.nan
        grow = _mean_abs(conv(s - s_prev, h)) / den
        decay = _mean_abs(conv(np.abs(reg) - np.abs(reg_prev), g)) / den
        with np.errstate(over="ignore"):
            return float((lam_prev + grow) * np.exp(-decay))

    def fallback(s, s_prev, reg, reg_prev):
        den = _mean_abs(conv(np.abs(reg) - np.abs(reg_prev), g))
        num = _mean_abs(conv(s - s_prev, h))
        if num <= 0.0:
            return 0.0
        if not np.isfinite(den) or den <= 0.0:
            return np.nan
        return num / den

    x = np.asarray(image, dtype=float)
    s_prev, s = x, conv(x, g)
    reg_prev, reg = nd.curvature_operator(s_prev), nd.curvature_operator(s)
    lam = seed(s, reg, reg_prev)
    if not np.isfinite(lam):
        lam = fallback(s, s_prev, reg, reg_prev)
    residuals, lambdas, stop = [], [], STOP_CAP
    for k in range(cfg.max_iters):
        if k > 0:
            lam = update(lam, s, s_prev, reg, reg_prev)
            if not np.isfinite(lam):
                lam = fallback(s, s_prev, reg, reg_prev)
            if not np.isfinite(lam):
                stop = STOP_GATE
                break
        lam = min(max(lam, 0.0), cfg.lambda0)
        s_next = s + cfg.delta_t * (x - conv(s, h) + lam * conv(reg, g))
        if not np.all(np.isfinite(s_next)):
            stop = STOP_GATE
            break
        d = float(np.mean((s_next - s) ** 2))
        residuals.append(d)
        lambdas.append(lam)
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE
            break
        s_prev, s = s, s_next
        reg_prev, reg = reg, nd.curvature_operator(s)
        if d <= cfg.eps:
            stop = STOP_EPS
            break
    return s, np.array(residuals), np.array(lambdas), stop


def assert_matches_reference(out, rep, ref):
    """Same stop and iteration count as the direct-path loop; traces within
    1e-12 relative and the image within 1e-12 of its peak (the optimizers
    filter through the FFT, which differs from direct correlation by
    rounding)."""
    image, residuals, lambdas, stop = ref
    assert rep.stop_reason == stop
    assert rep.iterations == len(residuals) == len(lambdas)
    np.testing.assert_allclose(rep.lambda_trace, lambdas, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.residual_trace, residuals, rtol=1e-12,
                               atol=0)
    assert np.max(np.abs(out - image)) <= 1e-12 * np.max(np.abs(image))


@pytest.mark.parametrize("case_name", ["gaussian_case", "motion_case"])
def test_bvdr_default_config_matches_reference(case_name, request):
    case = request.getfixturevalue(case_name)
    out, rep = nd.bvdr_optimize(case.blurred, case.psf, case.ipsf_spectral)
    assert_matches_reference(out, rep, _reference_bvdr(
        case.blurred, case.psf, case.ipsf_spectral, OptimizerConfig()))


@pytest.mark.parametrize("case_name", ["gaussian_case", "motion_case"])
@pytest.mark.parametrize("alpha,delta_t", [(1.0, 0.1), (0.3, 0.05),
                                           (3.0, 0.2)])
def test_bvdr_unclamped_weight_matches_reference(case_name, alpha, delta_t,
                                                 request):
    """With lambda0 far above the dynamic weight, every iteration uses the
    seed/recursion/fallback value itself."""
    case = request.getfixturevalue(case_name)
    cfg = OptimizerConfig(lambda0=1e6, alpha=alpha, delta_t=delta_t)
    out, rep = nd.bvdr_optimize(case.blurred, case.psf, case.ipsf_spectral,
                                cfg)
    ref = _reference_bvdr(case.blurred, case.psf, case.ipsf_spectral, cfg)
    assert np.all(ref[2] < cfg.lambda0)
    assert_matches_reference(out, rep, ref)


def _reference_cs(image, h, g, cfg):
    """The curved-space loop with every convolution direct."""
    conv = _direct
    x = np.asarray(image, dtype=float)
    s = conv(x, g)
    residuals, lambdas, stop = [], [], STOP_CAP
    for _ in range(cfg.max_iters):
        r = x - conv(s, h)
        weight = r * r / (2.0 * nd.metric_determinant(s))
        s_next = s + cfg.delta_t * (r + conv(weight * nd.curvature_operator(s),
                                             g))
        d = float(np.mean((s_next - s) ** 2))
        residuals.append(d)
        lambdas.append(float(np.mean(weight)))
        if len(residuals) >= 2 and d > residuals[-2]:
            stop = STOP_INCREASE
            break
        s = s_next
        if d <= cfg.eps:
            stop = STOP_EPS
            break
    return s, np.array(residuals), np.array(lambdas), stop


@pytest.mark.parametrize("case_name", ["gaussian_case", "motion_case"])
@pytest.mark.parametrize("delta_t", [0.1, 1.0])
def test_cs_matches_reference(case_name, delta_t, request):
    case = request.getfixturevalue(case_name)
    cfg = OptimizerConfig(delta_t=delta_t)
    out, rep = nd.cs_optimize(case.blurred, case.psf, case.ipsf_spectral, cfg)
    assert_matches_reference(out, rep, _reference_cs(
        case.blurred, case.psf, case.ipsf_spectral, cfg))


@pytest.mark.parametrize("optimize", [nd.bvdr_optimize, nd.cs_optimize],
                         ids=["bvdr", "cs"])
def test_embedded_delta_pair_fixed_point(optimize):
    """A 9x9 grid holding one tap stays on the direct path, so the
    identity pair moves nothing; through the FFT, bvdr's seed weight would
    be a ratio of rounding-level numbers."""
    img = nd.texture((64, 64), seed=4)
    delta = nd.delta_kernel(9)
    out, rep = optimize(img, delta, delta)
    np.testing.assert_array_equal(out, img)
    assert rep.iterations == 1 and rep.stop_reason == STOP_EPS
    assert rep.lambda_trace[0] == pytest.approx(0.0, abs=1e-20)


def test_bvdr_convolves_each_iterate_once(motion_case, monkeypatch):
    """Three filtered fields per iterate, plus the input's three and the
    single-pass estimate: at most 3 N + 4 filter applications for N
    iterations, and no convolution outside the filters."""
    import nsdeblur.deconv as deconv
    calls = []
    build = deconv.replicate_filter

    def counting_build(kernel, shape):
        apply = build(kernel, shape)

        def counted(image):
            calls.append("filter")
            return apply(image)
        return counted

    def counting_convolve(*args, **kwargs):
        calls.append("convolve")
        return nd.convolve(*args, **kwargs)

    monkeypatch.setattr(deconv, "replicate_filter", counting_build)
    monkeypatch.setattr(deconv, "convolve", counting_convolve)
    case = motion_case
    _, rep = nd.bvdr_optimize(case.blurred, case.psf, case.ipsf_spectral)
    assert rep.iterations == 20
    assert "convolve" not in calls
    assert 3 * rep.iterations <= len(calls) <= 3 * rep.iterations + 4
