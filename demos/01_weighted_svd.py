"""Decompose a finite sine sum and compare against its known spectrum.

The function sum_k c_k sin(k pi x) sin(k pi y) has singular values
c_k / 2 because each sine factor carries squared integral 1/2. The
quadrature-weighted decomposition recovers them from point samples, and
the vectors come back orthonormal in the weighted inner product rather
than the plain euclidean one.
"""
import numpy as np

import sobosvd as sv


def main():
    case = sv.get_case("SINSUM", coeffs=(1.0, 0.4, 0.16, 0.064))
    u = sv.sample_case(case, (129, 129))
    system = sv.mode_svd(u, 0)

    exact = case.oracle.sigmas(4)
    print("singular values on a 129 x 129 grid")
    print(f"{'k':>3} {'computed':>16} {'exact':>16} {'rel err':>10}")
    for k in range(4):
        got = system.sigmas[k]
        print(f"{k + 1:>3} {got:16.10f} {exact[k]:16.10f} {abs(got - exact[k]) / exact[k]:10.2e}")

    w = system.row_weights
    gram = system.left_vectors.T @ (w[:, None] * system.left_vectors)
    r = sv.numerical_rank(system)
    off = np.max(np.abs(gram[:r, :r] - np.eye(r)))
    print(f"\nnumerical rank: {r}")
    print(f"weighted orthonormality defect of the left vectors: {off:.2e}")

    other = sv.mode_svd(u, 1)
    truncation = sv.hosvd_project(u, (r, r), systems=(system, other)).projected
    resid = sv.norm_l2(u - truncation) / sv.norm_l2(u)
    print(f"relative L2 residual at full numerical rank: {resid:.2e}")

    # the same factorization transposed: right vectors of mode 0 are the
    # left vectors of mode 1 up to sign for this symmetric function
    gap = np.max(np.abs(np.abs(system.right_vectors[:, :r]) - np.abs(other.left_vectors[:, :r])))
    print(f"mode symmetry of the factors: {gap:.2e}")


if __name__ == "__main__":
    main()
