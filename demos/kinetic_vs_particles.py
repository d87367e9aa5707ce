"""Do particle ensembles follow the kinetic equations? Mode by mode.

Left: the leader model with uniform resampling noise, whose first Fourier
mode must decay exactly like e^{-t}. Right: the midpoint model against the
grid solver. Both start from i.i.d. wrapped-normal data and report the
standardized deviation z = (empirical - kinetic) / SE per mode and time.
"""

import numpy as np

from pairjump import (
    FourierDensity,
    ModelSpec,
    UniformNoise,
    WrappedNormalNoise,
    bdg_evolve,
    cl_evolve,
    compare_flow,
    fourier_coeffs,
    simulate_ensemble,
    summarize,
)

SEED = 20260814


def leader_demo():
    f0 = WrappedNormalNoise(0.5)
    times = [0.5, 1.0, 2.0]
    ens = simulate_ensemble(ModelSpec("cl", UniformNoise()), 1000, 2.0,
                            times, 100, SEED, initial=f0)
    s = summarize(ens, kmax=2)

    k = np.arange(-2, 3)
    fd0 = FourierDensity(np.asarray(f0.fourier(k), dtype=complex))
    ref = np.empty((len(times), 3))
    for ti, t in enumerate(times):
        sol = cl_evolve(fd0, UniformNoise(), t)
        ref[ti] = [sol.coeff(j).real for j in range(3)]
    z = compare_flow(s, ref)

    print("leader model, uniform noise, N=1000, R=100")
    print(f"{'t':>5} {'fhat1 empirical':>16} {'fhat1 kinetic':>14} {'z':>7}")
    for ti, t in enumerate(times):
        print(f"{t:>5.1f} {s.f1[ti, 1].real:>16.5f} {ref[ti, 1]:>14.5f} "
              f"{abs(z[ti, 1]):>7.2f}")


def midpoint_demo():
    g = WrappedNormalNoise(0.2)
    f0 = WrappedNormalNoise(0.5)
    ens = simulate_ensemble(ModelSpec("bdg", g), 1000, 0.5, [0.5], 100, SEED,
                            initial=f0)
    s = summarize(ens, kmax=2)
    sol = fourier_coeffs(bdg_evolve(f0.tabulate(256), g, 0.5), 2)

    print()
    print("midpoint model, wrapped-normal noise var=0.2, N=1000, R=100, t=0.5")
    print(f"{'k':>5} {'empirical':>12} {'kinetic':>12} {'z':>7}")
    for k in (1, 2):
        z = abs(s.f1[0, k] - sol.coeff(k)) / s.f1_se[0, k]
        print(f"{k:>5} {s.f1[0, k].real:>12.5f} {sol.coeff(k).real:>12.5f} "
              f"{z:>7.2f}")


def main():
    leader_demo()
    midpoint_demo()
    print()
    print("All |z| of order one: the ensembles track the kinetic solutions")
    print("within pure sampling noise.")


if __name__ == "__main__":
    main()
