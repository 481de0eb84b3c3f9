"""Two routes to an inverse kernel, and what they restore.

Estimates the forward kernel blindly, synthesizes the inverse two ways
(null-basis expansion vs space-domain regression), restores by a single
convolution and compares PSNR.  Also shows the delta-identity quality of
each kernel pair: how close the convolution of forward and inverse gets
to a unit impulse.
"""

import numpy as np

import nsdeblur as nd
from nsdeblur.config import OptimizerConfig


def identity_share(h, g):
    # full 2-D convolution of the pair: each tap of h shifts a copy of g
    full = np.zeros((h.shape[0] + g.shape[0] - 1, h.shape[1] + g.shape[1] - 1))
    for (i, k), tap in np.ndenumerate(h):
        full[i:i + g.shape[0], k:k + g.shape[1]] += tap * g
    ci, ck = (full.shape[0] - 1) // 2, (full.shape[1] - 1) // 2
    return abs(full[ci, ck]) / np.abs(full).sum()


def main():
    print("== inverse kernels: null-basis route vs space route ==")
    clean = nd.texture((128, 128), seed=23, rolloff=1.4, noise_floor=0.02)
    degraded = nd.convolve(clean, nd.gaussian_kernel(1.0, 5))
    base_psnr = nd.psnr(degraded, clean)
    print(f"blurred PSNR: {base_psnr:.2f} dB")

    basis = nd.compute_cns(
        nd.build_operator(nd.estimate_ar(degraded, 13, 13), 9, 9))
    h, _ = nd.optimize_psf(
        nd.estimate_psf(nd.gradient_stats(degraded, basis), basis), basis)

    g_spectral, rep_sp = nd.optimize_ipsf_spectral(
        nd.ipsf_spectral(h, basis), h, basis)
    g_space, rep_sf = nd.optimize_ipsf_space(
        nd.ipsf_space(degraded, h), degraded, h,
        OptimizerConfig(lambda0=1e-5))

    for name, g in (("null-basis (9x9)", g_spectral),
                    ("space-domain (17x17)", g_space)):
        restored = nd.deconvolve_once(degraded, g)
        print(f"{name:<22} identity share={identity_share(h, g):.2f} "
              f"restored PSNR={nd.psnr(restored, clean):.2f} dB "
              f"(+{nd.psnr(restored, clean) - base_psnr:.2f})")
    print("\nthe space-route kernel is larger and sharper; the null-basis "
          "kernel\nkeeps the cleaner impulse identity.")


if __name__ == "__main__":
    main()
