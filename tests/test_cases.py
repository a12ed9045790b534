import numpy as np
import pytest

import sobosvd as sv
from sobosvd.cases import list_cases
from sobosvd.errors import ConfigError, UnknownCaseError


def test_catalog_listing():
    names = [name for name, _ in list_cases()]
    assert names == ["BROWNIAN", "EXPXY", "SEP1", "SEP3D", "SINSUM", "SUM3D"]
    assert all(desc for _, desc in list_cases())


def test_get_case_rejects_bad_input():
    with pytest.raises(UnknownCaseError):
        sv.get_case("NOPE")
    with pytest.raises(ConfigError):
        sv.get_case("SEP1", coeffs=(1.0,))
    with pytest.raises(ConfigError):
        sv.get_case("SINSUM", coeffs=())
    with pytest.raises(ConfigError):
        sv.get_case("SINSUM", coeffs=(1.0, -0.5))
    with pytest.raises(ConfigError):
        sv.get_case("SUM3D", c1=0.5, c2=1.0)
    # numpy numbers from Python callers are numbers too
    for coeffs in ([np.float64(1.0), 0.5], np.array([1.0, 0.5])):
        assert sv.get_case("SINSUM", coeffs=coeffs).params == {"coeffs": [1.0, 0.5]}
    sum3d = sv.get_case("SUM3D", c1=np.float64(2.0), c2=np.int64(1))
    assert sum3d.params == {"c1": 2.0, "c2": 1.0}


def test_case_axes_size_handling():
    # sample_case builds one unit-interval axis per dimension of the case
    case = sv.get_case("SEP3D")
    u = sv.sample_case(case, (17,))
    assert u.shape == (17, 17, 17)
    assert all((a.n, a.lower, a.upper) == (17, 0.0, 1.0) for a in u.axes)
    assert sv.sample_case(case, (5, 7, 9)).shape == (5, 7, 9)
    with pytest.raises(ConfigError):
        sv.sample_case(case, (17, 17))


def test_sep1_oracle_values():
    o = sv.get_case("SEP1").oracle
    # int sin^2 = 1/2 per factor: sigma 1/2, normalized dpsi norm pi
    assert o.sigmas(3) == pytest.approx([0.5])
    assert o.dpsi_norms(2) == pytest.approx([np.pi])
    assert o.l2_norm == 0.5
    assert o.h1_norm_sq == pytest.approx(0.25 * (1.0 + 2.0 * np.pi**2))


def test_sep1_discrete_agreement():
    case = sv.get_case("SEP1")
    u = sv.sample_case(case, (129, 129))
    s = sv.mode_svd(u, 0)
    assert s.sigmas[0] == pytest.approx(0.5, rel=1e-4)
    d = sv.derivative_data(u, s)
    assert d.dpsi_norms[0] == pytest.approx(case.oracle.dpsi_norms(1)[0], rel=1e-3)


def test_sinsum_sorts_by_coefficient():
    case = sv.get_case("SINSUM", coeffs=(0.2, 1.0, 0.5))
    o = case.oracle
    assert o.sigmas(3) == pytest.approx([0.5, 0.25, 0.1])
    # dpsi norms follow the sorted order: modes 2, 3, 1
    assert o.dpsi_norms(3) == pytest.approx([2 * np.pi, 3 * np.pi, np.pi])
    assert o.l2_norm == pytest.approx(np.sqrt(0.25 + 0.0625 + 0.01))
    expect_h1 = sum(
        (c / 2.0) ** 2 * (1.0 + 2.0 * (k * np.pi) ** 2)
        for k, c in ((1, 0.2), (2, 1.0), (3, 0.5))
    )
    assert o.h1_norm_sq == pytest.approx(expect_h1, rel=1e-14)


def test_sinsum_discrete_spectrum():
    case = sv.get_case("SINSUM")
    u = sv.sample_case(case, (129, 129))
    s = sv.mode_svd(u, 0)
    assert s.sigmas[:3] == pytest.approx([0.5, 0.25, 0.125], rel=1e-4)
    assert s.sigmas[3] < 1e-12


def test_brownian_oracle_self_consistency():
    o = sv.get_case("BROWNIAN").oracle
    k = np.arange(1, 9)
    assert o.sigmas(8) == pytest.approx(((k - 0.5) * np.pi) ** -2.0, rel=1e-15)
    assert o.l2_norm == pytest.approx(np.sqrt(1.0 / 6.0))


def test_brownian_discrete_spectrum():
    case = sv.get_case("BROWNIAN")
    oracle = case.oracle
    u = sv.sample_case(case, (129, 129))
    s = sv.mode_svd(u, 0)
    assert s.sigmas[:6] == pytest.approx(oracle.sigmas(6), rel=2e-3)
    assert sv.norm_l2(u) ** 2 == pytest.approx(1.0 / 6.0, rel=1e-3)
    assert sv.norm_h1(u) ** 2 == pytest.approx(oracle.h1_norm_sq, rel=2e-2)


def test_sep3d_oracle_and_sampling():
    case = sv.get_case("SEP3D")
    assert case.oracle.l2_norm == pytest.approx(2.0**-1.5)
    assert case.oracle.h1_norm_sq == pytest.approx((1.0 + 3.0 * np.pi**2) / 8.0)
    u = sv.sample_case(case, (33, 33, 33))
    assert sv.norm_l2(u) == pytest.approx(2.0**-1.5, rel=1e-3)
    for mode in range(3):
        s = sv.mode_svd(u, mode)
        assert s.sigmas[0] == pytest.approx(2.0**-1.5, rel=1e-3)
        assert s.sigmas[1] < 1e-12


def test_sum3d_oracle_and_sampling():
    case = sv.get_case("SUM3D", c1=0.8, c2=0.3)
    assert case.oracle.sigmas(2) == pytest.approx([0.8, 0.3])
    assert case.oracle.l2_norm == pytest.approx(np.hypot(0.8, 0.3))
    u = sv.sample_case(case, (25, 25, 25))
    s = sv.mode_svd(u, 2)
    assert s.sigmas[:2] == pytest.approx([0.8, 0.3], rel=1e-3)
    assert s.sigmas[2] < 1e-12


def test_expxy_l2_closed_form():
    case = sv.get_case("EXPXY")
    # (Ei(2) - eulergamma - log 2) / 2, square-rooted
    assert case.oracle.l2_norm == pytest.approx(1.3571793379175083, rel=1e-15)
    u = sv.sample_case(case, (513, 513))
    assert sv.norm_l2(u) == pytest.approx(case.oracle.l2_norm, rel=1e-6)
    assert case.oracle.sigmas is None


def test_dense_reference_sigmas_richardson():
    case = sv.get_case("EXPXY")
    coarse, fine = (
        sv.mode_svd(sv.sample_case(case, (n, n)), 0).sigmas[:5] for n in (129, 257)
    )
    rel = np.abs(fine - coarse) / fine
    # second-order grids agree to a few parts in 1e4 on the leading
    # values; deeper values lose ground with the condition of the tail
    assert rel[0] < 1e-5
    assert np.all(rel < 5e-3)
    assert np.all(np.diff(fine) < 0)


def test_samplers_match_direct_evaluation():
    rng = np.random.default_rng(7)
    x, y = rng.random(5), rng.random(5)
    case = sv.get_case("SINSUM", coeffs=(0.3, 0.9))
    direct = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.9 * np.sin(
        2 * np.pi * x
    ) * np.sin(2 * np.pi * y)
    assert case.sampler(x, y) == pytest.approx(direct, rel=1e-14)
