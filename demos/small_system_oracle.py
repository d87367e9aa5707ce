"""Brute force against formula: three particles on a 16-cell circle.

Builds the exact one-jump chain of the leader model on the 816 multisets of
three cells out of 16 (the 16^3 labelled grid states lumped onto particle
permutations), kept as the two halves of a jump (a pair out, a pair in),
power-iterates to the stationary law, and compares the Fourier coefficients
of its pair-difference marginal with the closed-form profile. Agreement is
limited only by the power-iteration tolerance.
"""

import numpy as np

from pairjump import (
    ModelSpec,
    TabulatedNoise,
    WrappedNormalNoise,
    build_transition,
    marginal,
    pair_correlation_closed,
    pair_difference_profile,
    stationary,
)

M = 16
N = 3


def main():
    g = TabulatedNoise(WrappedNormalNoise(0.5).tabulate(M).values)
    tm = build_transition(ModelSpec("cl", g), N, M)
    print(f"states: {tm.n_states}, stored entries: {tm.out.nnz + tm.into.nnz}")

    dist = stationary(tm)
    one = marginal(dist, [0])
    print(f"one-particle marginal: uniform up to {np.max(np.abs(one - 1 / M)):.2e}")

    prof = pair_difference_profile(marginal(dist, [0, 1]))
    theta = np.arange(M) * (2 * np.pi / M)
    emp = (np.exp(-1j * np.outer(np.arange(5), theta)) @ prof).real
    closed = pair_correlation_closed(g, N, 4).fhat

    print()
    print(f"{'k':>3} {'brute force':>16} {'closed form':>16} {'rel err':>10}")
    for k in range(1, 5):
        rel = abs(emp[k] - closed[k]) / abs(closed[k])
        print(f"{k:>3} {emp[k]:>16.12f} {closed[k]:>16.12f} {rel:>10.1e}")


if __name__ == "__main__":
    main()
