import dataclasses
import importlib.util
import os
import signal
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy.ndimage import correlate, gaussian_filter

import nsdeblur as nd
import nsdeblur.deconv as deconv
import nsdeblur.pipeline as pipeline
from conftest import SRC, estimate_bits
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
    filtered, response = nd.denoise_prefilter(noisy, 33, 17)
    assert response.shape == (33, 33)
    assert nd.psnr(filtered, corpus_texture) > nd.psnr(noisy, corpus_texture)


def test_denoise_prefilter_near_identity_on_clean(corpus_texture):
    filtered, _ = nd.denoise_prefilter(corpus_texture, 33, 17)
    rel = (np.linalg.norm(filtered - corpus_texture)
           / np.linalg.norm(corpus_texture))
    assert rel <= 0.2


@pytest.mark.parametrize("stage, mib", [
    (lambda x: nd.estimate_ar(x, 33, 33), 19),
    (lambda x: nd.denoise_prefilter(x), 15.5)],
    ids=["estimate_ar-33x33", "denoise_prefilter"])
def test_dense_ridges_are_added_in_place(stage, mib):
    """Traced allocation peaks on a 256 x 256 texture.  The unfolded
    1088-unknown fit peaks at 18.1 MiB: its 9.5 MB Gram and its free
    block (27.1 MiB while the fit also built a separate ridge * I).  The
    prefilter folds its fit and its 1089-tap inverse to about half the
    unknowns and copies no free block: 14.4 MiB."""
    x = nd.texture((256, 256), seed=3)
    tracemalloc.start()
    try:
        stage(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2 ** 20


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
    """A 9x9 grid holding one tap takes the exact one-tap shift, so the
    identity pair moves nothing; through the FFT, bvdr's seed weight would
    be a ratio of rounding-level numbers."""
    img = nd.texture((64, 64), seed=4)
    delta = nd.delta_kernel(9)
    out, rep = optimize(img, delta, delta)
    np.testing.assert_array_equal(out, img)
    assert rep.iterations == 1 and rep.stop_reason == STOP_EPS
    assert rep.lambda_trace[0] == pytest.approx(0.0, abs=1e-20)


# --- the failure contract: a diverging or non-finite step raises, a
# non-finite weight stops at the gate

@pytest.mark.parametrize("scale", [1e3, 1e6])
@pytest.mark.parametrize("optimize, name", [(nd.bvdr_optimize, "bvdr"),
                                            (nd.cs_optimize, "cs")],
                         ids=["bvdr", "cs"])
def test_diverging_step_raises(optimize, name, scale, motion_case):
    """An inverse kernel with absurd gain makes the first step dwarf the
    input; both optimizers used to return saturated images."""
    case = motion_case
    with pytest.raises(nd.DeblurError, match=f"^{name} diverged") as exc:
        optimize(case.blurred, case.psf, case.ipsf_spectral * scale)
    assert exc.value.exit_code == 4


@pytest.mark.parametrize("delta_t", [1e160, 1e308])
@pytest.mark.parametrize("optimize, name", [(nd.bvdr_optimize, "bvdr"),
                                            (nd.cs_optimize, "cs")],
                         ids=["bvdr", "cs"])
def test_overflowing_step_raises_without_warning(optimize, name, delta_t,
                                                 motion_case):
    """A step whose square (1e160) or whose product with the step
    parameter (1e308) overflows is an infinite step: DeblurError, as at
    1e100, and no RuntimeWarning, which this suite turns into an error."""
    case = motion_case
    with pytest.raises(nd.DeblurError,
                       match=f"^{name} diverged: mean-square step inf"):
        optimize(case.blurred, case.psf, case.ipsf_spectral,
                 OptimizerConfig(delta_t=delta_t))


@pytest.mark.parametrize("optimize, name", [(nd.bvdr_optimize, "bvdr"),
                                            (nd.cs_optimize, "cs")],
                         ids=["bvdr", "cs"])
def test_non_finite_step_raises(optimize, name, gaussian_case, monkeypatch):
    """Filters returning NaN on every field but the input image leave the
    first iterate finite and make its step non-finite.  With its weight
    held finite, bvdr used to stop such a run with lambda_gate_failed."""
    case = gaussian_case
    build = deconv.replicate_filter

    def nan_build(kernel, shape):
        apply = build(kernel, shape)
        return lambda image: (apply(image) if image is case.blurred
                              else np.full(shape, np.nan))

    monkeypatch.setattr(deconv, "replicate_filter", nan_build)
    monkeypatch.setattr(deconv, "_weight", lambda *args: 0.005)
    with pytest.raises(nd.DeblurError, match=f"^{name} diverged: .* nan"):
        optimize(case.blurred, case.psf, case.ipsf_spectral)


@pytest.mark.parametrize("good_calls", [0, 3])
def test_nan_weight_stops_bvdr_at_the_gate(good_calls, motion_case,
                                           monkeypatch):
    """A weight still non-finite after the fallback ends the run with
    lambda_gate_failed and the last iterate taken: from the first call
    on, the single-pass estimate g(x) after 0 iterations."""
    case = motion_case
    args = (case.blurred, case.psf, case.ipsf_spectral)
    if good_calls == 0:
        expected = nd.convolve(case.blurred, case.ipsf_spectral)
    else:
        expected, _ = nd.bvdr_optimize(*args,
                                       OptimizerConfig(max_iters=good_calls))
    calls, weight = [], deconv._weight

    def failing_weight(*weight_args):
        calls.append(1)
        return weight(*weight_args) if len(calls) <= good_calls else np.nan

    monkeypatch.setattr(deconv, "_weight", failing_weight)
    out, rep = nd.bvdr_optimize(*args)
    assert rep.stop_reason == STOP_GATE and rep.iterations == good_calls
    np.testing.assert_array_equal(out, expected)


def test_bvdr_convolves_each_iterate_once(motion_case, monkeypatch):
    """Three filtered fields per iterate, plus the input's three and the
    single-pass estimate: at most 3 N + 4 filter applications for N
    iterations, and no convolution outside the filters."""
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


# --- the worker thread: serial bits, errors after both sides, shared safely

#: Unclamped weight and a step past stability: every case stops on
#: residual_increased after a few iterations.
UNCLAMPED = OptimizerConfig(lambda0=1e6, delta_t=2.2, eps=1e-300)


def _inline(task, here):
    """``deconv._beside`` with both callables on the calling thread."""
    mine = here()
    return task(), mine


def _bits(optimize, case, cfg=None):
    out, rep = optimize(case.blurred, case.psf, case.ipsf_spectral, cfg)
    dt_bounds = rep.extras.get("dt_bound_trace", np.empty(0))
    return (out.tobytes(), rep.residual_trace.tobytes(),
            rep.lambda_trace.tobytes(), dt_bounds.tobytes(), rep.iterations,
            rep.stop_reason)


@pytest.mark.parametrize("cfg", [OptimizerConfig(), UNCLAMPED],
                         ids=["default", "unclamped"])
@pytest.mark.parametrize("case_name", ["gaussian_case", "motion_case"])
@pytest.mark.parametrize("optimize", [nd.bvdr_optimize, nd.cs_optimize],
                         ids=["bvdr", "cs"])
def test_worker_gives_serial_bits(optimize, case_name, cfg, request,
                                  monkeypatch):
    case = request.getfixturevalue(case_name)
    concurrent = _bits(optimize, case, cfg)
    monkeypatch.setattr(deconv, "_beside", _inline)
    assert _bits(optimize, case, cfg) == concurrent
    if cfg is UNCLAMPED:
        assert concurrent[-1] == STOP_INCREASE


class Boom(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_beside_raises_after_both_sides_finish(failing):
    error, finished = Boom(failing), []

    def fail():
        raise error

    def slow():
        time.sleep(0.05)
        finished.append(threading.get_ident())
        return 1

    task, here = (fail, slow) if failing == "worker" else (slow, fail)
    with pytest.raises(Boom) as exc:
        deconv._beside(task, here)
    assert exc.value is error
    assert len(finished) == 1
    assert deconv._beside(lambda: 2, lambda: 3) == (2, 3)


@pytest.mark.parametrize("failing", ["worker", "caller"])
@pytest.mark.parametrize("optimize", [nd.bvdr_optimize, nd.cs_optimize],
                         ids=["bvdr", "cs"])
def test_optimizer_error_on_either_side(optimize, failing, gaussian_case,
                                        monkeypatch):
    """A filter failing on the worker or the curvature failing on the
    caller ends the run with that error once the other side is done; the
    next run gives the normal result."""
    normal = _bits(optimize, gaussian_case)
    caller = threading.get_ident()
    error, running = Boom(failing), []
    build = deconv.replicate_filter

    def failing_build(kernel, shape):
        apply = build(kernel, shape)

        def tracked(image):
            if failing == "worker" and threading.get_ident() != caller:
                raise error
            running.append(1)
            out = apply(image)
            running.pop()
            return out
        return tracked

    def failing_curvature(grid):
        raise error

    monkeypatch.setattr(deconv, "replicate_filter", failing_build)
    if failing == "caller":
        monkeypatch.setattr(deconv, "curvature_operator", failing_curvature)
    with pytest.raises(Boom) as exc:
        _bits(optimize, gaussian_case)
    assert exc.value is error
    assert running == []
    monkeypatch.undo()
    assert _bits(optimize, gaussian_case) == normal


def _tracer_targets():
    """``TARGETS`` of perfbench's tracer: (modules, attribute, layer,
    figures) of every binding it wraps."""
    path = SRC.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracer_targets", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.TARGETS


#: Small models for the whole chain on the 128 x 128 corpus, on every
#: estimate route.
ROUTES = [nd.PipelineConfig(ar_p=13, ar_q=13, psf_l=7, psf_m=7,
                            ipsf_route=route, denoise=denoise,
                            denoise_order=13, denoise_size=7)
          for route, denoise in (("spectral", False), ("space", False),
                                 ("space", True))]


def test_traced_bindings_run_on_the_calling_thread(motion_case, monkeypatch):
    """Every ``pipeline.*`` and ``deconv.*`` binding the tracer wraps runs
    on the caller, where the tracer's single span stack records it, on
    every estimate route and in every restoration; the gradient moments
    and some filters run on the worker."""
    caller, seen = threading.get_ident(), defaultdict(set)
    modules = {"pipeline": pipeline, "deconv": deconv}

    def recording(fn, key):
        def wrapper(*args, **kwargs):
            seen[key].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    traced = set()
    for names, attr, _, _ in _tracer_targets():
        for name in set(names) & set(modules):
            traced.add(f"{name}.{attr}")
            monkeypatch.setattr(modules[name], attr, recording(
                getattr(modules[name], attr), f"{name}.{attr}"))
    monkeypatch.setattr(pipeline, "gradient_moments", recording(
        pipeline.gradient_moments, "moments"))
    build = deconv.replicate_filter
    monkeypatch.setattr(deconv, "replicate_filter", lambda kernel, shape:
                        recording(build(kernel, shape), "filter"))
    image = motion_case.blurred
    for cfg in ROUTES:
        result = pipeline.estimate_kernels(image, cfg)
    for optimizer in pipeline.OPTIMIZERS:
        pipeline.restore(image, result.ipsf, result.psf,
                         dataclasses.replace(cfg, optimizer=optimizer))
    # deconvolve_once is called through the pipeline binding only
    assert set(seen) - {"moments", "filter"} == traced - {
        "deconv.deconvolve_once"}
    for key in traced & set(seen):
        assert seen[key] == {caller}, key
    assert seen["moments"] and caller not in seen["moments"]
    assert seen["filter"] - {caller}


def test_two_callers_share_the_worker(gaussian_case, motion_case,
                                      monkeypatch):
    """Two user threads estimating and then optimizing at once get the
    bits each gets alone, and only they, never the worker, hand it
    tasks."""
    cases = (gaussian_case, motion_case)

    def work(case):
        return ([estimate_bits(case.blurred, cfg) for cfg in ROUTES],
                _bits(nd.bvdr_optimize, case))

    alone = [work(case) for case in cases]
    callers = set()
    for module in (deconv, pipeline):
        def recording(task, here, beside=module._beside):
            callers.add(threading.current_thread().name)
            return beside(task, here)
        monkeypatch.setattr(module, "_beside", recording)
    together, start = [None, None], threading.Barrier(2)

    def run(i):
        start.wait()
        together[i] = work(cases[i])

    threads = [threading.Thread(target=run, args=(i,), name=f"user-{i}")
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert together == alone
    assert callers == {"user-0", "user-1"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_worker(motion_case):
    """The parent's worker thread does not exist in a forked child; the
    child's optimizer must not wait on it."""
    alone = _bits(nd.bvdr_optimize, motion_case)      # starts the worker
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if _bits(nd.bvdr_optimize, motion_case) == alone
                     else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on the parent's worker")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
