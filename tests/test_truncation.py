import itertools
import json
import sys

import numpy as np
import pytest

import sobosvd as sv
from sobosvd.errors import ModeError, SobosvdError

from conftest import bernstein_constants, bracket_holds, smooth_random, traced_peak


def _truncation(u, systems, r):
    """The rank-r truncation of a bivariate u: in 2D the Tucker projection
    at (r, r) (``test_hosvd_project_2d_is_the_svd_truncation``)."""
    return sv.hosvd_project(u, (r, r), systems=systems).projected


def test_eckart_young_single_mode(catalog):
    # measured squared L2 error of the rank-r truncation equals the
    # discarded spectral weight, an exact identity on the grid
    u, systems, _ = catalog["SINSUM"]
    s = systems[0]
    lam = s.sigmas**2
    scale = sv.norm_l2(u) ** 2
    for r in (0, 1, 2, 3):
        measured = sv.norm_l2(u - _truncation(u, systems, r)) ** 2
        assert abs(measured - lam[r:].sum()) / scale < 1e-13


def test_h1_identity_matches_measured(catalog):
    for name in ("SEP1", "SINSUM", "BROWNIAN"):
        u, systems, derivs = catalog[name]
        scale = sv.norm_h1(u) ** 2
        for r in range(0, min(6, systems[0].k_max) + 1):
            ident = sv.series_split(systems[0], r, derivs[0], derivs[1])
            ur = _truncation(u, systems, r)
            assert abs(sv.norm_h1(ur) ** 2 - ident.norm_sq) / scale < 1e-12, name
            assert abs(sv.norm_h1(u - ur) ** 2 - ident.error_sq) / scale < 1e-12, name


def test_h1_identity_with_unretained_tail(expxy_fine):
    # directions dropped by the retain threshold enter the series with
    # their L2 mass only; the defect stays below the roughness they carry
    u, systems, derivs = expxy_fine
    scale = sv.norm_h1(u) ** 2
    for r in (1, 3, 5):
        ident = sv.series_split(systems[0], r, derivs[0], derivs[1])
        ur = _truncation(u, systems, r)
        assert abs(sv.norm_h1(u - ur) ** 2 - ident.error_sq) / scale < 1e-9


def test_h1_identity_rank_zero(catalog):
    u, systems, derivs = catalog["SINSUM"]
    ident = sv.series_split(systems[0], 0, derivs[0], derivs[1])
    assert ident.norm_sq == 0.0
    assert ident.error_sq == pytest.approx(sv.norm_h1(u) ** 2, rel=1e-12)


def test_ek_identity_matches_measured(catalog):
    u, systems, derivs = catalog["SINSUM"]
    for mode in (0, 1):
        scale = sv.norm_ek(u, mode) ** 2
        for r in (1, 2, 3):
            ident = sv.series_split(systems[mode], r, derivs[mode])
            rv = [u.shape[0], u.shape[1]]
            rv[mode] = r
            rv[1 - mode] = systems[1 - mode].k_max
            proj = sv.hosvd_project(u, rv, systems=systems).projected
            assert abs(sv.norm_ek(proj, mode) ** 2 - ident.norm_sq) / scale < 1e-12
            assert (
                abs(sv.norm_ek(u - proj, mode) ** 2 - ident.error_sq) / scale < 1e-12
            )


def test_series_split_rank_range(catalog):
    # 0 <= r <= k_max: all in the tail at 0, all kept at k_max; else ModeError
    _, systems, derivs = catalog["SINSUM"]
    s = systems[0]
    none, full = sv.series_split(s, 0, *derivs), sv.series_split(s, s.k_max, *derivs)
    assert none.norm_sq == 0.0 and full.error_sq == 0.0
    assert full.norm_sq == pytest.approx(none.error_sq, rel=1e-14)
    for r in (-1, s.k_max + 1):
        with pytest.raises(ModeError):
            sv.series_split(s, r, *derivs)


@pytest.mark.parametrize(
    "shape, top", [((5, 7), (8, 9)), ((4, 0), (6, 3)), ((4, 3, 5), (6, 4, 7)), ((2, 0, 3), (3, 2, 4))]
)
def test_core_sobolev_sq_is_the_nested_definition(shape, top):
    # the paired forms <C x_{i<l} A_i, C x_l A_l^T> are the nested forms
    # <C x_0 A_0 ... x_l A_l, C>, on Grams larger than the core (cut to its
    # block) and not symmetric, so that a dropped transpose fails
    from sobosvd.tensor_core import mode_product
    from sobosvd.truncation import _core_sobolev_sq

    rng = np.random.default_rng(27)
    core = rng.standard_normal(shape)
    mass, stiff = ([rng.standard_normal((n, n)) for n in top] for _ in range(2))

    def nested(grams, c):
        t = c
        for j, g in enumerate(grams):
            t = mode_product(t, g[: c.shape[j], : c.shape[j]], j)
        return float(np.vdot(t, c))

    def forms(grams_m, grams_g, c=core):
        return [nested(grams_m, c)] + [
            nested([*grams_m[:j], g, *grams_m[j + 1 :]], c) for j, g in enumerate(grams_g)
        ]

    want = forms(mass, stiff)
    tol = 1e-14 * max(forms([np.abs(m) for m in mass], [np.abs(g) for g in stiff], np.abs(core)))
    got = _core_sobolev_sq(core, mass, stiff)
    assert len(got) == core.ndim + 1
    assert max(abs(a - b) for a, b in zip(got, want)) <= tol
    if core.size:
        # the last mode's Grams transposed: what dropping the transpose gives
        flipped = [[*grams[:-1], grams[-1].T] for grams in (mass, stiff)]
        wrong = _core_sobolev_sq(core, *flipped)
        assert max(abs(a - b) for a, b in zip(wrong, want)) > 1e6 * tol


@pytest.mark.parametrize(
    "name, shape, ranks",
    [
        # k_max is 17 in both modes, so 20 and 23 ask mode 1 for more
        ("BROWNIAN", (17, 23), ((0, 1, 4, 16, 17), (0, 2, 17, 20, 23))),
        ("SUM3D", (9, 11, 13), ((0, 1, 9), (0, 3, 11), (0, 5, 13))),
    ],
)
def test_sandwich_series_is_series_split_bit_for_bit(name, shape, ranks):
    # every series entry of a rank report is series_split at the clamped
    # rank, bit for bit: one prefix-sum kernel, r = 0 and r = k_max included
    u = sv.sample_case(sv.get_case(name), shape)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    rvs = list(itertools.product(*ranks))
    if u.ndim == 2:
        rvs += [(r, r) for r in range(systems[0].k_max + 1)]
    for rv, rep in zip(rvs, sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)):
        series, cut = rep["series"], [min(r, s.k_max) for r, s in zip(rv, systems)]
        for j, (s, dv, c) in enumerate(zip(systems, derivs, cut)):
            ek = sv.series_split(s, c, dv)
            assert (series["ek_norm_sq"][j], series["ek_error_sq"][j]) == ek, (rv, j)
            assert series["l2_error_sq"][j] == sv.series_split(s, c).error_sq, (rv, j)
        if u.ndim == 2:
            h1 = sv.series_split(systems[0], min(*rv, systems[0].k_max), *derivs)
            assert (series["h1_norm_sq"], series["h1_error_sq"]) == h1, rv


def test_hosvd_project_caps_rank():
    u = sv.sample_case(sv.get_case("SEP3D"), (9, 9, 9))
    systems = sv.mode_svds(u)
    approx = sv.hosvd_project(u, (9, 9, 9), systems=systems)
    # k_max is 9 here, nothing to cap; over-asking beyond shape raises
    assert approx.factors[0].shape == (9, 9)
    for rv in ((10, 9, 9), (9, 9), (-1, 9, 9)):
        with pytest.raises(ModeError):
            sv.hosvd_project(u, rv, systems=systems)


def test_hosvd_project_l2_bound(catalog):
    u, systems, _ = catalog["SUM3D"]
    for rv in itertools.product((0, 1, 2), repeat=3):
        approx = sv.hosvd_project(u, rv, systems=systems)
        err_sq = sv.norm_l2(u - approx.projected) ** 2
        tails = sum(
            float(np.sum((s.sigmas**2)[rv[j] :])) for j, s in enumerate(systems)
        )
        assert err_sq <= tails + 1e-10


def test_given_systems_must_cover_every_mode_in_order():
    # two systems of one mode used to drop a mode silently: hosvd_project
    # returned two factors for a three-way rank vector
    rng = np.random.default_rng(3)
    axes = tuple(sv.make_axis(n) for n in (9, 11, 13))
    u = sv.GridFunction(axes, rng.standard_normal((9, 11, 13)))
    s0, s1, s2 = sv.mode_svds(u)
    d0, d1, d2 = (sv.derivative_data(u, s) for s in (s0, s1, s2))
    for systems in ((s0, s0, s2), (s1, s0, s2), (s0, s1)):
        with pytest.raises(ModeError):
            sv.hosvd_project(u, (1, 1, 1), systems=systems)
        with pytest.raises(ModeError):
            sv.hooi(u, (1, 1, 1), systems=systems)
        with pytest.raises(ModeError):
            sv.h1_sandwich(u, [(1, 1, 1)], systems=systems, derivs=(d0, d1, d2))
    assert len(sv.hosvd_project(u, (1, 1, 1), systems=(s0, s1, s2)).factors) == 3
    # derivative data likewise: a repeated mode would drop a direction
    # from the measured residual
    with pytest.raises(ModeError):
        sv.h1_sandwich(u, [(1, 1, 1)], systems=(s0, s1, s2), derivs=(d0, d0, d2))


def test_hooi_never_worse_than_spectral_start():
    rng = np.random.default_rng(13)
    axes = tuple(sv.make_axis(10) for _ in range(3))
    u = sv.GridFunction(axes, rng.standard_normal((10, 10, 10)))
    systems = sv.mode_svds(u)
    for rv in ((1, 1, 1), (2, 3, 2), (4, 4, 4)):
        spectral = sv.hosvd_project(u, rv, systems=systems)
        refined = sv.hooi(u, rv, systems=systems)
        e_s = sv.norm_l2(u - spectral.projected)
        e_h = sv.norm_l2(u - refined.projected)
        assert e_h <= e_s + 1e-12
        assert refined.error_history[0] == pytest.approx(e_s, rel=1e-12)
        assert min(refined.error_history) == pytest.approx(e_h, rel=1e-12)


def test_hooi_exact_on_separable_sum(catalog):
    u, systems, _ = catalog["SUM3D"]
    refined = sv.hooi(u, (2, 2, 2), systems=systems)
    assert sv.norm_l2(u - refined.projected) / sv.norm_l2(u) < 1e-12


def test_hooi_validates_inputs():
    u = sv.sample_case(sv.get_case("SEP3D"), (9, 9, 9))
    with pytest.raises(SobosvdError):
        sv.hooi(u, (1, 1, 1), max_iters=0, systems=sv.mode_svds(u))


def test_sandwich_balanced_brackets_hold(catalog):
    sweeps = {2: [(r, r) for r in range(1, 7)], 3: [(r, r, r) for r in range(1, 5)]}
    for name, (u, systems, derivs) in catalog.items():
        slack = 1e-9 * sv.norm_h1(u) ** 2
        for rv in sweeps[u.ndim]:
            rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
            holds = bracket_holds(rep, slack)
            assert all(holds.values()), f"{name} {rv}: {holds}"


def test_sandwich_d2_series_equals_measured(catalog):
    # for d = 2 the two mode projections keep the same rank-r piece, so
    # the balanced composition is the SVD truncation and the series is
    # exact for the measured Sobolev residual
    u, systems, derivs = catalog["BROWNIAN"]
    scale = sv.norm_h1(u) ** 2
    for r in (1, 2, 4):
        rep = sv.h1_sandwich(u, [(r, r)], systems=systems, derivs=derivs)[0]
        assert abs(rep["measured"]["h1"] ** 2 - rep["series"]["h1_error_sq"]) / scale < 1e-12


def test_sandwich_unbalanced_upper_can_fail(catalog):
    # rank vectors that keep everything in one mode but truncate another
    # genuinely break the residual upper bracket: the discarded terms
    # carry derivative mass in the untruncated direction that no mode
    # tail accounts for. The bracket must show it.
    u, systems, derivs = catalog["SINSUM"]
    rep = sv.h1_sandwich(u, [(1, 3)], systems=systems, derivs=derivs)[0]
    holds = bracket_holds(rep, 1e-9 * sv.norm_h1(u) ** 2)
    assert not holds["residual_h1"]
    assert holds["approx_h1"]
    assert holds["residual_l2"]


@pytest.mark.parametrize(
    "name,shape",
    [
        ("BROWNIAN", (33, 33)),
        ("EXPXY", (33, 33)),
        ("SINSUM", (33, 33)),
        ("SUM3D", (17, 17, 17)),
        ("SEP3D", (17, 17, 17)),
    ],
)
def test_sandwich_approx_lower_bound_every_rank_vector(name, shape):
    # |P u|_1^2 >= |u|^2 - sum of L2 tails for every rank vector, zero
    # entries and unequal ranks included
    u = sv.sample_case(sv.get_case(name), shape)
    systems = tuple(sv.mode_svd(u, j) for j in range(u.ndim))
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    slack = 1e-9 * sv.norm_h1(u) ** 2
    failing = []
    for rv in itertools.product(range(6), repeat=u.ndim):
        rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
        if not bracket_holds(rep, slack)["approx_h1"]:
            failing.append(rv)
    assert failing == []


def test_hosvd_project_2d_is_the_svd_truncation(catalog):
    # in 2D the Tucker projection at (a, b) keeps the rank-min(a, b)
    # truncation, which the h1_identity check relies on
    for name, (u, systems, _) in catalog.items():
        if u.ndim != 2:
            continue
        scale, s = sv.norm_l2(u), systems[0]
        for rv in itertools.product(range(6), repeat=2):
            tucker = sv.hosvd_project(u, rv, systems=systems).projected
            # (U_m Sigma_m) V_m^T of mode 0 is on the grid: rows axis 0
            m = min(rv)
            svd = (s.left_vectors[:, :m] * s.sigmas[:m]) @ s.right_vectors[:, :m].T
            assert sv.norm_l2(tucker - sv.GridFunction(u.axes, svd)) <= 1e-13 * scale, (name, rv)


def test_sandwich_quasi_ref_is_d_times_largest_tail(catalog):
    # d max_j tail_j with tail_j the plain spectral tail of mode j at
    # min(r_j, k_max), bit for bit, in every d; the bracket always holds
    for name, (u, systems, derivs) in catalog.items():
        slack = 1e-9 * sv.norm_h1(u) ** 2
        for rv in itertools.product((0, 1, 3, 70), repeat=u.ndim):
            rv = tuple(min(r, n) for r, n in zip(rv, u.shape))
            rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
            tails = [
                sv.series_split(s, min(r, s.k_max)).error_sq for s, r in zip(systems, rv)
            ]
            assert rep["bounds"]["quasi_opt_reference"] == u.ndim * max(tails), (name, rv)
            assert bracket_holds(rep, slack)["quasi_opt"], (name, rv)


def test_sandwich_quasi_ref_is_the_2d_optimum(catalog):
    # in 2D the reference is d times the tail of the rank-min(r0, r1)
    # truncation, the best error at (r0, r1): mode 1 shares mode 0's
    # sigmas, up to the refinement in mode 1's own orientation
    for name, (u, systems, derivs) in catalog.items():
        if u.ndim != 2:
            continue
        scale = sv.norm_l2(u) ** 2
        for rv in itertools.product(range(6), repeat=2):
            rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
            m = min(*rv, systems[0].k_max)
            optimum = 2.0 * float(np.sum(systems[0].sigmas[m:] ** 2))
            assert abs(rep["bounds"]["quasi_opt_reference"] - optimum) <= 1e-15 * scale, (name, rv)


def _inverse_sum_3d():
    axes = (sv.make_axis(17), sv.make_axis(13), sv.make_axis(11))
    x, y, z = np.meshgrid(*(ax.nodes for ax in axes), indexing="ij")
    return sv.GridFunction(axes, 1.0 / (1.0 + x + y + z))


@pytest.mark.parametrize("name", ["SUM3D", "SEP3D", "inverse-sum"])
def test_sandwich_quasi_ref_chain(name):
    # |u - P u|^2 <= d max_j tail_j <= d |u - u*|^2 <= d min(hooi history)^2:
    # the reference sits between the measured error and the refined one
    if name == "inverse-sum":
        u = _inverse_sum_3d()
    else:
        u = sv.sample_case(sv.get_case(name), (17, 17, 17))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    slack = 1e-9 * sv.norm_h1(u) ** 2
    for rv in itertools.product(range(4), repeat=3):
        rep = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0]
        refined = sv.hooi(u, rv, systems=systems)
        ref = rep["bounds"]["quasi_opt_reference"]
        assert bracket_holds(rep, slack)["quasi_opt"], rv
        assert ref <= 3 * min(refined.error_history) ** 2 + slack, rv


@pytest.mark.parametrize(
    "name, shape, rvs",
    [
        # k_max is 17 in both modes, so (17, 20) and (3, 23) ask mode 1 for more
        ("BROWNIAN", (17, 23), [(0, 0), (1, 3), (4, 1), (0, 5), (17, 20), (3, 23), (2, 2)]),
        ("SUM3D", (9, 11, 13), [(0, 0, 0), (1, 2, 3), (4, 0, 2), (9, 11, 13), (2, 7, 1)]),
    ],
)
def test_sandwich_batch_is_the_single_calls(name, shape, rvs):
    # one analysis at the largest ranks serves every rank vector: each
    # report of a batch is the one-vector call's, the measured norms and
    # norm-ratio constants up to roundoff
    u = sv.sample_case(sv.get_case(name), shape)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    batch = sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)
    singles = [sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)[0] for rv in rvs]
    tol = 1e-14 * sv.norm_h1(u) ** 2
    assert len(batch) == len(rvs)
    for got, want in zip(batch, singles):
        for key in ("rank_vector", "series", "bounds"):
            assert got[key] == want[key], (got["rank_vector"], key)
        m_got, m_want = got["measured"], want["measured"]
        pairs = [(m_got[k] ** 2, m_want[k] ** 2) for k in ("l2", "h1")]
        pairs += [(m_got["approx_h1_sq"], m_want["approx_h1_sq"])]
        pairs += zip(np.square(m_got["ek"]), np.square(m_want["ek"]))
        pairs += zip(m_got["approx_ek_sq"], m_want["approx_ek_sq"])
        for k in ("l2_error_sq", "ek_norm_sq", "ek_error_sq"):
            pairs += zip(m_got["single_mode"][k], m_want["single_mode"][k])
        pairs += zip(got["bernstein"], want["bernstein"])
        assert max(abs(a - b) for a, b in pairs) <= tol, got["rank_vector"]
    assert sv.h1_sandwich(u, [], systems=systems, derivs=derivs) == []


def test_sandwich_d3_has_no_h1_series(catalog):
    u, systems, derivs = catalog["SEP3D"]
    rep = sv.h1_sandwich(u, [(1, 1, 1)], systems=systems, derivs=derivs)[0]
    assert rep["series"]["h1_norm_sq"] is None
    assert rep["series"]["h1_error_sq"] is None
    assert len(rep["measured"]["ek"]) == 3
    assert len(rep["bernstein"]) == 3


def test_sandwich_report_is_strict_json(catalog):
    # h1_sandwich returns the report.json entry itself: JSON types only
    u, systems, derivs = catalog["SEP1"]
    rep = sv.h1_sandwich(u, [(1, 1)], systems=systems, derivs=derivs)[0]
    assert set(rep) == {"rank_vector", "measured", "series", "bounds", "bernstein"}
    assert rep["rank_vector"] == [1, 1]
    assert len(rep["measured"]["approx_ek_sq"]) == 2
    assert json.loads(json.dumps(rep, allow_nan=False)) == rep


def test_sandwich_approx_ek_sq_is_the_ek_series(catalog):
    # in 2D at equal ranks the Tucker projection is the single-mode one,
    # whose one-direction norm the kept series gives (ek_identity's tolerance)
    for name in ("SEP1", "SINSUM", "BROWNIAN", "EXPXY"):
        u, systems, derivs = catalog[name]
        u_sq = sv.norm_l2(u) ** 2
        for r in range(4):
            rep = sv.h1_sandwich(u, [(r, r)], systems=systems, derivs=derivs)[0]
            for j in range(2):
                scale = u_sq + derivs[j].du_sq
                gap = abs(rep["measured"]["approx_ek_sq"][j] - rep["series"]["ek_norm_sq"][j])
                assert gap <= 1e-9 * scale, (name, r, j)


@pytest.mark.parametrize(
    "intervals, shape, ranks",
    [
        (((-1.0, 2.0), (0.5, 3.0)), (13, 17), ((0, 1, 3, 5, 13), (0, 2, 4, 13, 15, 17))),
        (
            ((-2.0, 0.5), (1.0, 1.5), (0.0, 4.0)),
            (15, 3, 4),
            ((0, 2, 4, 12, 15), (0, 1, 3), (0, 2, 4)),
        ),
    ],
)
def test_sandwich_kept_side_is_the_built_projection(intervals, shape, ranks):
    # h1_sandwich takes |Pu|^2 and |D_j Pu|^2 from the core and the mode
    # Grams; they must be sobolev_sq of the projection built on the grid,
    # at rank vectors with zero entries and with ranks above k_max (13 in
    # mode 1 of the 13x17 grid, 12 in mode 0 of the 15x3x4 grid)
    u = smooth_random(np.random.default_rng(1809), intervals, shape)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    rvs = list(itertools.product(*ranks))
    assert any(r > s.k_max for rv in rvs for r, s in zip(rv, systems))

    def close(a, b):
        return abs(a - b) <= 1e-13 * abs(b)

    for rv, rep in zip(rvs, sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)):
        sq = sv.sobolev_sq(sv.hosvd_project(u, rv, systems=systems).projected)
        measured = rep["measured"]
        assert close(measured["approx_h1_sq"], sum(sq)), rv
        for j, ek in enumerate(measured["approx_ek_sq"]):
            assert close(ek, sq[0] + sq[1 + j]), (rv, j)


@pytest.mark.parametrize(
    "intervals, shape, ranks",
    [
        (((-1.0, 2.0), (0.5, 3.0)), (13, 17), (2, 3)),
        (((-2.0, 0.5), (1.0, 1.5), (0.0, 4.0)), (9, 11, 7), (2, 2, 3)),
    ],
)
def test_sandwich_top_residual_is_measured_on_the_grid(intervals, shape, ranks):
    # at the largest ranks of a call h1_sandwich measures u - Pu on the
    # grid; its terms must be the weighted sums sobolev_sq takes of u - Pu
    # built as a grid function and agree with the norms of that grid
    # function differentiated directly
    rng = np.random.default_rng(1809)
    u = smooth_random(rng, intervals, shape)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    resid = u - sv.hosvd_project(u, ranks, systems=systems).projected
    d = u.ndim

    def close(a, b):
        return abs(a - b) <= 1e-14 * abs(b)

    measured = sv.h1_sandwich(u, [ranks], systems=systems, derivs=derivs)[0]["measured"]
    tail = sv.sobolev_sq(resid)
    assert measured["l2"] == np.sqrt(tail[0])
    assert measured["h1"] == np.sqrt(sum(tail))
    assert measured["ek"] == [np.sqrt(tail[0] + tail[1 + j]) for j in range(d)]
    assert close(measured["l2"], sv.norm_l2(resid))
    for j in range(d):
        assert close(measured["ek"][j], sv.norm_ek(resid, j)), j
    assert close(measured["h1"], sv.norm_h1(resid))


@pytest.mark.parametrize(
    "intervals, shape, ranks",
    [
        (((-1.0, 2.0), (0.5, 3.0)), (13, 17), ((0, 1, 3, 5, 13), (0, 2, 4, 13, 15, 17))),
        (
            ((-2.0, 0.5), (1.0, 1.5), (0.0, 4.0)),
            (15, 3, 4),
            ((0, 2, 4, 12, 15), (0, 1, 3), (0, 2, 4)),
        ),
    ],
)
def test_sandwich_residual_side_is_the_built_residual(intervals, shape, ranks):
    # h1_sandwich measures u - Pu on the grid only at the largest ranks
    # and gets every other residual from the core outside the rank
    # vector's block; its squares must be sobolev_sq of u - Pu built on
    # the grid, at rank vectors with zero entries and ranks above k_max.
    # Those reach the full rank, where the measured residual is roundoff;
    # the data have rank 4 in mode 0, so a second call on the rank vectors
    # up to 2 measures a residual that is not. The scale is absolute:
    # residuals past k_max are roundoff
    u = smooth_random(np.random.default_rng(1809), intervals, shape)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    rvs = list(itertools.product(*ranks))
    assert any(r > s.k_max for rv in rvs for r, s in zip(rv, systems))
    tol = 1e-13 * sv.norm_h1(u) ** 2

    for batch in (rvs, [rv for rv in rvs if max(rv) <= 2]):
        for rv, rep in zip(batch, sv.h1_sandwich(u, batch, systems=systems, derivs=derivs)):
            sq = sv.sobolev_sq(u - sv.hosvd_project(u, rv, systems=systems).projected)
            measured = rep["measured"]
            assert abs(measured["l2"] ** 2 - sq[0]) <= tol, rv
            assert abs(measured["h1"] ** 2 - sum(sq)) <= tol, rv
            for j, ek in enumerate(measured["ek"]):
                assert abs(ek**2 - (sq[0] + sq[1 + j])) <= tol, (rv, j)


def test_sandwich_grid_work_is_per_call(monkeypatch):
    # the grid is differentiated d times per call for the residual plus
    # once per mode basis for the stencil Grams, however many rank
    # vectors, and not at all without one; and the 64-vector call's
    # working memory stays within one grid array of the one-vector call
    # at the same largest ranks
    import sobosvd.truncation as truncation

    u = sv.sample_case(sv.get_case("BROWNIAN"), (65, 65))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    sweep = [(r, r) for r in range(1, 65)]
    calls = []
    fd2 = truncation._fd2

    def spy(*args):
        calls.append(args[2])
        return fd2(*args)

    monkeypatch.setattr(truncation, "_fd2", spy)
    counts = []
    for rvs in ([], [sweep[-1]], sweep):
        calls.clear()
        sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)
        counts.append(len(calls))
    assert counts == [0, 2 * u.ndim, 2 * u.ndim]
    monkeypatch.undo()

    def transient(rvs) -> float:
        reports, peak, live = traced_peak(
            lambda: sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs), u.values
        )
        assert len(reports) == len(rvs)
        return peak - live

    assert transient(sweep) <= transient([sweep[-1]]) + 1.0


def test_sandwich_bernstein_uses_effective_rank(catalog):
    # ranks past the retained block fall back to the deepest available
    # constant instead of raising
    u, systems, derivs = catalog["EXPXY"]
    big = min(systems[0].k_max, derivs[0].count + 3)
    rep = sv.h1_sandwich(u, [(big, big)], systems=systems, derivs=derivs)[0]
    expected = bernstein_constants(u, systems, derivs, 0, [derivs[0].count])[0]
    assert rep["bernstein"][0] == pytest.approx(expected)


def test_sandwich_bernstein_once_per_mode_and_rank(monkeypatch):
    # a call computes Gamma_j(r) once per distinct mode and clamped rank
    # its rank vectors name, and none at rank 0: on SUM3D 17^3 over
    # {0..5}^3, 6 eigenproblems for 216 rank vectors
    import sobosvd.truncation as truncation

    u = sv.sample_case(sv.get_case("SUM3D"), (17, 17, 17))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    rvs = list(itertools.product(range(6), repeat=3))
    want = [rep["bernstein"] for rep in sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)]
    calls = []
    real = truncation._top_ratio

    def counting(gram, r):
        calls.append(r)
        return real(gram, r)

    monkeypatch.setattr(truncation, "_top_ratio", counting)
    reports = sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)
    named = {(j, min(r, dv.count)) for rv in rvs for j, (r, dv) in enumerate(zip(rv, derivs))}
    assert len(calls) == len({(j, r) for j, r in named if r >= 1}) == 6
    assert [rep["bernstein"] for rep in reports] == want


def _random_cube(seed=7, n=12):
    rng = np.random.default_rng(seed)
    axes = tuple(sv.make_axis(n) for _ in range(3))
    return sv.GridFunction(axes, rng.standard_normal((n, n, n)))


def _count_mode_svds(monkeypatch) -> list:
    """Record the mode of every ``mode_svd`` the package makes from now on."""
    import sobosvd.svd_engine as svd_engine

    calls = []
    real = svd_engine.mode_svd

    def counting(u, mode):
        calls.append(mode)
        return real(u, mode)

    monkeypatch.setattr(svd_engine, "mode_svd", counting)
    return calls


def test_run_experiment_makes_no_hooi_call(monkeypatch):
    # hooi is patched in every sobosvd module that binds it, so a call
    # through any module's import counts
    import sobosvd.truncation as truncation

    calls = []
    real = truncation.hooi

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sobosvd" or name.startswith("sobosvd."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    for name, shape in (("SINSUM", (17, 17)), ("SUM3D", (9, 9, 9))):
        config = sv.ExperimentConfig.from_dict(
            {"function": {"case": name}, "grid": {"n": list(shape)}}
        )
        result = sv.run_experiment(config, edge_cases=True)
        assert result.passed
        assert {c["name"]: c["status"] for c in result.report["checks"]}["quasi_opt"] == "pass"
    assert calls == []


def test_tucker_functions_make_no_mode_svd(catalog, monkeypatch):
    # hosvd_project, hooi and h1_sandwich read the caller's mode systems
    # and derivative data; none of them decomposes u again
    calls = _count_mode_svds(monkeypatch)
    for name in ("BROWNIAN", "SUM3D"):
        u, systems, derivs = catalog[name]
        rv = (3,) * u.ndim
        sv.hosvd_project(u, rv, systems=systems)
        sv.hooi(u, rv, systems=systems)
        sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)
    assert calls == []


def test_tucker_functions_require_the_mode_systems(catalog):
    u, systems, _ = catalog["SINSUM"]
    for call in (
        lambda: sv.hosvd_project(u, (1, 1)),
        lambda: sv.hooi(u, (1, 1)),
        lambda: sv.h1_sandwich(u, [(1, 1)]),
        lambda: sv.h1_sandwich(u, [(1, 1)], systems=systems),
    ):
        with pytest.raises(TypeError):
            call()


def test_hooi_least_error_is_its_projection_error(catalog):
    # hooi's least recorded error is the error of the projection it
    # returns, bit for bit, whatever the memory layout of the starting
    # bases (per-mode mode_svd systems and mode_svds lay out the 2D
    # mode-1 vectors differently)
    for name, rv in (("EXPXY", (3, 2)), ("SUM3D", (2, 1, 2))):
        u, systems, _ = catalog[name]
        per_mode = tuple(sv.mode_svd(u, j) for j in range(u.ndim))
        for given in (systems, per_mode):
            refined = sv.hooi(u, rv, systems=given)
            assert min(refined.error_history) == sv.norm_l2(u - refined.projected)


def test_hooi_stop_rule_is_scale_invariant():
    u, scaled = _random_cube(), {}
    for c in (1e-6, 1.0, 1e6):
        v = sv.GridFunction(u.axes, c * u.values)
        scaled[c] = (v, sv.mode_svds(v))
    for r in (2, 4, 6):
        runs = {c: sv.hooi(v, (r, r, r), systems=s) for c, (v, s) in scaled.items()}
        sweeps = {c: len(t.error_history) - 1 for c, t in runs.items()}
        assert len(set(sweeps.values())) == 1, sweeps
        base = np.array(runs[1.0].error_history)
        for c, t in runs.items():
            np.testing.assert_allclose(
                np.array(t.error_history) / c, base, rtol=1e-9, atol=0.0
            )


def test_hooi_zero_input_stops_after_one_sweep():
    axes = tuple(sv.make_axis(9) for _ in range(3))
    z = sv.GridFunction(axes, np.zeros((9, 9, 9)))
    refined = sv.hooi(z, (2, 2, 2), systems=sv.mode_svds(z))
    assert refined.error_history == (0.0, 0.0)
    assert sv.norm_l2(refined.projected) == 0.0
