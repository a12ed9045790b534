import itertools

import numpy as np
import pytest

import sobosvd as sv
from sobosvd.errors import ModeError


def test_matricize_colex_entry():
    # mode j on the rows; columns over the other modes, first one fastest
    t = np.arange(24.0).reshape(2, 3, 4)
    unfoldings = [sv.matricize(t, j) for j in range(3)]
    assert [m.shape for m in unfoldings] == [(2, 12), (3, 8), (4, 6)]
    for i, j, k in itertools.product(range(2), range(3), range(4)):
        assert unfoldings[0][i, j + 3 * k] == t[i, j, k]
        assert unfoldings[1][j, i + 2 * k] == t[i, j, k]
        assert unfoldings[2][k, i + 2 * j] == t[i, j, k]


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 1, 4), (2, 3, 4, 5), (1, 3, 1, 2)])
def test_matricize_is_the_colex_unfolding_in_c_order(shape):
    # the colexicographic columns of the F-order reshape, and each copy
    # C-ordered, so that its transpose is F-ordered (a unit axis can leave
    # a view, of whatever layout)
    v = np.arange(float(np.prod(shape))).reshape(shape)
    for mode in range(len(shape)):
        rest = [j for j in range(len(shape)) if j != mode]
        want = np.transpose(v, (mode, *rest)).reshape(shape[mode], -1, order="F")
        got = sv.matricize(v, mode)
        assert np.array_equal(got, want), (shape, mode)
        assert np.shares_memory(got, v) or got.flags.c_contiguous, (shape, mode)


def test_matricize_2d_returns_views():
    v = np.arange(12.0).reshape(3, 4)
    for mode in (0, 1):
        assert np.shares_memory(sv.matricize(v, mode), v)


def test_matricize_rejects_bad_subsets():
    with pytest.raises(ModeError):
        sv.matricize(np.zeros((2, 3, 4)), 3)
    with pytest.raises(ModeError):
        sv.matricize(np.zeros(5), 0)


def test_mode_product_matches_einsum():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((6, 4))
    out = sv.mode_product(t, a, 1)
    np.testing.assert_allclose(out, np.einsum("kj,ijl->ikl", a, t))
    assert out.shape == (3, 6, 5)


def test_mode_product_matches_einsum_on_every_mode_of_a_4_way_tensor():
    # one matmul per call: the first, a middle and the last mode, in C and
    # F order, and a matrix with no rows (an empty mode in the result)
    rng = np.random.default_rng(4)
    t = rng.standard_normal((2, 3, 4, 5))
    letters = "abcd"
    for values in (t, np.asfortranarray(t)):
        for mode, rows in itertools.product(range(4), (0, 1, 6)):
            a = rng.standard_normal((rows, t.shape[mode]))
            spec = f"z{letters[mode]},{letters}->{letters.replace(letters[mode], 'z')}"
            want = np.einsum(spec, a, t)
            out = sv.mode_product(values, a, mode)
            assert out.shape == want.shape, (mode, rows)
            np.testing.assert_allclose(out, want, rtol=1e-13, atol=1e-13)


def test_mode_product_identity_and_composition():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(sv.mode_product(t, np.eye(4), 0), t)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 3))
    once = sv.mode_product(sv.mode_product(t, a, 0), b, 0)
    np.testing.assert_allclose(once, sv.mode_product(t, b @ a, 0))


def test_mode_product_different_modes_commute():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 5))
    ab = sv.mode_product(sv.mode_product(t, a, 0), b, 2)
    ba = sv.mode_product(sv.mode_product(t, b, 2), a, 0)
    np.testing.assert_allclose(ab, ba)


def test_mode_product_rejects_mismatch():
    t = np.zeros((3, 4))
    with pytest.raises(ModeError):
        sv.mode_product(t, np.zeros((2, 5)), 0)
    with pytest.raises(ModeError):
        sv.mode_product(t, np.zeros((2, 3)), 2)
    with pytest.raises(ModeError):
        sv.mode_product(t, np.zeros(3), 0)
