"""The null-side dimension along a blur ladder.

The operator's Gram spectrum splits into an eigen side and a null side;
the number of null-side vectors shrinks as blur gets stronger.  This
script runs a blur ladder on one image and prints the dimension at each
level, plus the no-reference sharpness index for comparison.

The dimension compares blurs of one image only; it is no blur meter
across images.  On one 256 x 256 texture under one blur, brightness and
contrast remaps alone move it from 43 to 6, and additive noise of
sigma 0.03 moves it from 43 to 11.
"""

import nsdeblur as nd


def main():
    print("== null-side dimension vs blur strength ==")
    image = nd.texture((128, 128), seed=23, rolloff=1.4, noise_floor=0.02)
    ladder = [
        ("sharp", None),
        ("gaussian 0.6", nd.gaussian_kernel(0.6, 5)),
        ("gaussian 1.0", nd.gaussian_kernel(1.0, 5)),
        ("gaussian 1.6", nd.gaussian_kernel(1.6, 7)),
        ("disk r=2", nd.disk_kernel(2.0)),
        ("motion 5", nd.motion_kernel(5, 0.0)),
    ]
    print(f"{'degradation':<14} {'K (of 81)':>10} {'sharpness':>10}")
    for name, kernel in ladder:
        degraded = image if kernel is None else nd.convolve(image, kernel)
        basis = nd.compute_cns(
            nd.build_operator(nd.estimate_ar(degraded, 13, 13), 9, 9))
        ai = nd.anisotropy_index(degraded)
        print(f"{name:<14} {basis.null_dim:>10} {ai:>10.5f}")
    print("\nalong the Gaussian ladder the null side shrinks as blur "
          "grows; kernels\nwith a different shape (line, disk) occupy "
          "their own dimension ranges.")


if __name__ == "__main__":
    main()
