"""Denoising with the high-order single-vector prefilter.

Impulse noise wrecks kernel estimation: the model operator reflects the
noise instead of the blur.  A high-order model reduced to its single
smallest-eigenvalue basis vector yields a data-adapted averaging filter
that suppresses the impulses without the usual extra smoothing; after
filtering, the null-side dimension and kernel estimate become usable.
"""

import nsdeblur as nd


def null_dim(image):
    return nd.compute_cns(
        nd.build_operator(nd.estimate_ar(image, 25, 25), 9, 9)).null_dim


def main():
    print("== impulse-noise prefilter ==")
    clean = nd.texture((128, 128), seed=23, rolloff=1.4, noise_floor=0.02)
    blurred = nd.convolve(clean, nd.gaussian_kernel(1.0, 5))
    noisy = nd.add_impulse_noise(blurred, 0.02, seed=24)
    print(f"blurred:        PSNR {nd.psnr(blurred, clean):.2f} dB")
    print(f"+2% impulses:   PSNR {nd.psnr(noisy, clean):.2f} dB, "
          f"null dimension {null_dim(noisy)} (noise-driven)")

    filtered, response = nd.denoise_prefilter(noisy, 33, 17)
    print(f"prefiltered:    PSNR {nd.psnr(filtered, clean):.2f} dB, "
          f"null dimension {null_dim(filtered)}")
    print(f"filter response: {response.shape[0]}x{response.shape[1]} taps, "
          f"sum {response.sum():.3f}, largest |tap| "
          f"{abs(response).max():.3f}")
    print("\nthe filter is a broad weighted accumulation: it removes the "
          "impulses\nwhile partially undoing the blur.")


if __name__ == "__main__":
    main()
