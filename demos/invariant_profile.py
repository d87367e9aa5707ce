"""Stationary pair correlations: finite N, the scaling limit, and washout.

For the heat-kernel noise family (coefficients e^{-k^2/N}) the stationary
pair-difference law of the leader model converges to a Lorentzian profile
1/(1+k^2) as N grows. For a fixed noise the correlations wash out instead.
"""

import numpy as np

from pairjump import (
    WrappedNormalNoise,
    gamma_from_noise,
    heat_kernel_family,
    limit_profile,
    pair_correlation_closed,
)


def main():
    K = 5
    sizes = (10, 100, 1000, 10_000)

    print("heat-kernel noise family: Fhat_N(k) vs the Lorentzian limit")
    header = "".join(f"  N={n:<8}" for n in sizes)
    print(f"{'k':>3}{header}  limit 1/(1+k^2)")
    profiles = {n: pair_correlation_closed(heat_kernel_family(n), n, K) for n in sizes}
    for k in range(K + 1):
        cells = "".join(f"  {profiles[n].coeff(k):<10.6f}" for n in sizes)
        print(f"{k:>3}{cells}  {1.0 / (1.0 + k * k):<.6f}")

    gamma = gamma_from_noise(heat_kernel_family(10_000), 10_000, K)
    lorentz = limit_profile(gamma)
    print()
    print("plug-in limit from gamma_N at N=1e4:",
          np.array2string(lorentz.fhat, precision=6))

    print()
    print("fixed wrapped-normal noise var=0.5: correlations wash out")
    print(f"{'N':>8} {'Fhat_N(1)':>12}")
    g = WrappedNormalNoise(0.5)
    for n in sizes:
        print(f"{n:>8} {pair_correlation_closed(g, n, 1).coeff(1):>12.3e}")


if __name__ == "__main__":
    main()
