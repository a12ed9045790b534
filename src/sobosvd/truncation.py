"""Rank truncation, exact error identities and two-sided Sobolev bounds.

For a bivariate grid function with weighted SVD sum_k sigma_k psi_k phi_k
the rank-r truncation keeps the first r triples. Because the psi and phi
families are orthonormal and differentiation acts factor by factor, the
Sobolev norms of the truncation and of its error are exact series in the
decomposition data:

    |u_r|_1^2       = sum_{k<=r} sigma_k^2 (1 + |psi_k'|^2 + |phi_k'|^2)
    |u - u_r|_1^2   = same sum over k > r

and per mode, with the one-direction norm,

    |P_j u|_{e_j}^2 = sum_{k<=r_j} sigma_k^2 (1 + |dpsi_k|^2).

In higher dimension the per-mode projections compose into the Tucker
truncation; its L2 error lies between the largest per-mode spectral
tail and the sum of them, so below d times the largest, which is at most
d times the best error at that rank vector (the quasi-optimality reference).
For its full Sobolev error ``h1_sandwich`` reports the largest per-mode
tail series and, as ``h1_upper``, the sum of the tail series plus the sum
of the L2 tails. That sum leaves out cross-direction terms, and the
measured error exceeds it at unequal ranks (ROADMAP item 3 records where).
An alternating refinement of the subspaces (``hooi``) improves the
truncation at fixed ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discretization import GridFunction, _fd2, _fd2_adjoint, _sq_l2
from .errors import ModeError, SobosvdError
from .sobolev import DerivativeData, _root_sum, norm_l2
from .svd_engine import SingularSystem, _fix_signs
from .tensor_core import _mode_product, check_mode, matricize, mode_product

_HOOI_TOL = 1e-12  # hooi's stop rule, relative to the L2 norm of u


class SeriesSplit(NamedTuple):
    """A Sobolev series split at rank r: kept terms and tail."""

    norm_sq: float
    error_sq: float


def series_split(
    system: SingularSystem, r: int, *derivs: DerivativeData
) -> SeriesSplit:
    """sum_k sigma_k^2 (1 + sum_i |dpsi_k|^2 over derivs) split at rank r.

    One ``DerivativeData`` (of the decomposed mode) gives the
    one-direction series of a single-mode projection; two, the second
    from the complementary mode of a bivariate function, give the full
    Sobolev series of the rank-r truncation and its error; none, the
    plain squared spectrum. Directions dropped by the retain threshold
    carry spectral weight below noise; they enter with their L2 mass only.
    Kept terms are summed forward from k = 0, the tail from the far end
    (never as total minus kept). Raises ModeError unless 0 <= r <= k_max.
    """
    r = int(r)
    if not 0 <= r <= system.k_max:
        raise ModeError(f"rank {r} out of range, decomposition has {system.k_max} directions")
    return SeriesSplit(*(sums[r] for sums in _series_sums(system, *derivs)))


def _series_sums(system: SingularSystem, *derivs: DerivativeData) -> tuple[list, list]:
    """The sums ``series_split`` reads, (kept, tail), each over r = 0..k_max."""
    factor = 1.0
    for deriv in derivs:
        dpsi = np.zeros(system.k_max)
        m = min(deriv.count, system.k_max)
        dpsi[:m] = deriv.dpsi_norms[:m]
        factor = factor + dpsi**2
    t = system.sigmas**2 * factor
    return np.cumsum(np.r_[0.0, t]).tolist(), np.cumsum(np.r_[0.0, t[::-1]])[::-1].tolist()


@dataclass(frozen=True, eq=False)
class TuckerApprox:
    """A rank-vector truncation: per-mode bases and the projected function."""

    factors: tuple[np.ndarray, ...]
    projected: GridFunction
    error_history: tuple[float, ...] | None = None


def _analysis_map(u: GridFunction, q: np.ndarray, mode: int | None) -> np.ndarray:
    """Weighted transpose of a mode basis: coefficients of the projection."""
    return (q * u.axes[check_mode(mode, u.ndim)].quad_weights[:, None]).T


def _leading_bases(systems, ranks) -> dict[int, np.ndarray]:
    """Mode -> the first r left vectors of that mode's system, r capped at
    the columns it holds: the one place a basis, core or index is clamped."""
    return {s.mode: s.left_vectors[:, :r] for s, r in zip(systems, ranks)}


def _analysis(u: GridFunction, bases: dict[int, np.ndarray], values=None) -> np.ndarray:
    """Coefficients of ``values``, an array on the grid of ``u`` (by
    default u's own), against the bases ``bases`` maps modes to, each
    through its weighted transpose; modes it does not name are kept."""
    vals = u.values if values is None else values
    for j, q in bases.items():
        vals = mode_product(vals, _analysis_map(u, q, j), j)
    return vals


def _synthesis(core: np.ndarray, bases: dict[int, np.ndarray], out=None) -> np.ndarray:
    """The grid values of coefficients ``core`` in the leading columns of
    ``bases``, as many in each mode as ``core`` has entries there; the
    last contraction writes into ``out`` if it is given (C-contiguous)."""
    *first, (last, q_last) = bases.items()
    for j, q in first:
        core = mode_product(core, q[:, : core.shape[j]], j)
    return _mode_product(core, q_last[:, : core.shape[last]], last, out)


def _stencil_gram(u: GridFunction, q: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """D q, the FD2 stencil along ``mode`` applied to the columns of the
    mode basis ``q``, and its Gram (D q)^T W (D q)."""
    dq = _fd2(q, u.axes[mode].spacing, 0, np.empty_like(q))
    return dq, _analysis_map(u, dq, mode) @ dq


def _single_mode_coeffs(u: GridFunction, q, dq, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """F = Q^T W M(u) and E = (D Q)^T W M(D u), M the ``mode`` unfolding,
    Q = ``q`` and D Q = ``dq``, from one mode product of u with the
    stacked map [Q^T W; S^T], S = D^T (W D Q): D acts on the rows of M,
    so E = S^T M(u), and u is read once and D u never formed."""
    ax = u.axes[mode]
    s = _fd2_adjoint(dq * ax.quad_weights[:, None], ax.spacing)
    stacked = np.vstack((_analysis_map(u, q, mode), s.T))
    fe = matricize(_mode_product(u.values, stacked, mode), mode)
    return fe[: q.shape[1]], fe[q.shape[1] :]


def _single_mode_sq(u: GridFunction, system, deriv, q, dq, g) -> dict:
    """|u - P u|^2, |P u|_e^2 and |u - P u|_e^2, each a list over r = 0, 1,
    ..., P the projection of the system's mode e onto the first r columns
    of ``q``: ``h1_sandwich``'s single-mode pass, with D q and its Gram in
    ``dq`` and ``g``, |D u|^2 in ``deriv`` and |u|^2 from ``u.sq_l2``."""
    c, e = _single_mode_coeffs(u, q, dq, system.mode)
    cw = c * system.col_weights
    h = cw @ c.T
    kept = np.cumsum(np.r_[0.0, np.diag(h)])
    dkept = np.r_[0.0, np.diag(np.cumsum(np.cumsum(g * h, 0), 1))]
    cross = np.cumsum(np.r_[0.0, np.einsum("kc,kc->k", e, cw)])
    tails = list(zip(u.sq_l2 - kept, deriv.du_sq - 2.0 * cross + dkept))
    sums = ([t[:1] for t in tails], zip(kept, dkept), tails)
    keys = ("l2_error_sq", "ek_norm_sq", "ek_error_sq")
    return {key: [_root_sum(t) ** 2 for t in terms] for key, terms in zip(keys, sums)}


def _grid_residual(u: GridFunction, core: np.ndarray, bases, dq) -> tuple[list, list]:
    """The residual a = u - P u of the projection with coefficients
    ``core`` in ``bases``, measured on the grid: ([A, B_0, ...], [|a|^2,
    |D_0 a|^2, ...]), A the coefficients of a in ``bases`` and B_j those
    of D_j a with ``dq[j]`` = D_j Q_j in mode j. P u is synthesized into
    one workspace, overwritten with a and differentiated into a second
    buffer reused for every direction; no other grid-sized array."""
    work, deriv = np.empty(u.shape), np.empty(u.shape)
    resid = np.subtract(u.values, _synthesis(core, bases, work), out=work)
    coeffs, terms = [_analysis(u, bases, resid)], [_sq_l2(resid, u.axes, deriv)]
    for j, ax in enumerate(u.axes):
        dres = _fd2(resid, ax.spacing, j, deriv)
        coeffs.append(_analysis(u, {**bases, j: dq[j]}, dres))
        terms.append(_sq_l2(dres, u.axes, deriv))
    return coeffs, terms


def _core_sobolev_sq(core: np.ndarray, mass, stiff) -> list[float]:
    """(|P u|^2, |D_0 P u|^2, ...) of the projection with coefficients
    ``core``: <C x_i M_i, C>, then the same with G_j in place of M_j for
    each j, with M_j = ``mass[j]`` and G_j = ``stiff[j]`` cut to the
    leading block that ``core`` has entries for; paired as in ``h1_sandwich``."""
    k, n = core.ndim - 1, core.shape
    m, g = ([a[: n[j], : n[j]] for j, a in enumerate(grams)] for grams in (mass, stiff))
    heads = [core]  # M_i in every mode so far, then G_j in mode j
    for j in range(k):
        heads = [_mode_product(h, m[j], j) for h in heads] + [_mode_product(heads[0], g[j], j)]
    tm, tg = (_mode_product(core, a[k].T, k) for a in (m, g))
    return [float(np.vdot(h, tm)) for h in heads] + [float(np.vdot(heads[0], tg))]


def _apply_projection(u: GridFunction, bases: dict[int, np.ndarray]) -> np.ndarray:
    """Analysis then synthesis: the projected values as a raw array."""
    return _synthesis(_analysis(u, bases), bases)


def _check_rank_vector(ranks, shape: tuple[int, ...]) -> tuple[int, ...]:
    """A rank vector for a grid of ``shape``, as a tuple of ints.

    Raises ModeError unless the grid has at least two axes and the
    vector holds one rank per axis with 0 <= r_j <= n_j.
    """
    if len(shape) < 2:
        raise ModeError(f"a rank vector needs at least two axes, got {len(shape)}")
    rv = tuple(int(r) for r in ranks)
    if len(rv) != len(shape):
        raise ModeError(f"rank vector {list(rv)} has {len(rv)} entries for {len(shape)} axes")
    for j, (r, n) in enumerate(zip(rv, shape)):
        if r < 0:
            raise ModeError(f"negative rank {r} at mode {j}")
        if r > n:
            raise ModeError(f"rank {r} exceeds the {n} grid points of mode {j}")
    return rv


def _per_mode(items, d: int, what: str):
    """``items`` (mode systems or derivative data), checked to be of
    modes 0, ..., d-1 in that order; ModeError otherwise."""
    modes = [item.mode for item in items]
    if modes != list(range(d)):
        raise ModeError(f"{what} of modes {modes}; need modes 0..{d - 1} in order")
    return items


def hosvd_project(
    u: GridFunction, ranks, *, systems: tuple[SingularSystem, ...]
) -> TuckerApprox:
    """Compose the per-mode spectral projections at a rank vector.

    Each mode keeps the span of its first r_j left vectors in ``systems``;
    the projections commute, and the L2 error of the composition is bounded
    by the sum of per-mode discarded spectral weight.
    """
    rv, systems = _check_rank_vector(ranks, u.shape), _per_mode(systems, u.ndim, "systems")
    bases = _leading_bases(systems, rv)
    projected = GridFunction(u.axes, _apply_projection(u, bases))
    return TuckerApprox(tuple(bases.values()), projected)


def hooi(
    u: GridFunction,
    ranks,
    max_iters: int = 50,
    *,
    systems: tuple[SingularSystem, ...],
) -> TuckerApprox:
    """Alternating refinement of the per-mode subspaces at fixed ranks.

    Starts from the spectral projection bases. Each mode update keeps the
    dominant weighted left subspace of the tensor contracted with every
    other analysis map, which cannot increase the L2 error. Stops when an
    entire sweep improves the L2 error by at most 1e-12 times the L2 norm
    of ``u`` (a rule that does not depend on the scale of ``u``; an
    all-zero input stops after one sweep), or at max_iters sweeps.
    Returns the best subspaces seen, the projection onto them and the
    error history. The projection is built from the very bases whose
    error the history records, so its error is the least of the history
    bit for bit.
    """
    if max_iters < 1:
        raise SobosvdError(f"max_iters must be >= 1, got {max_iters}")
    rv, systems = _check_rank_vector(ranks, u.shape), _per_mode(systems, u.ndim, "systems")
    factors = _leading_bases(systems, rv)

    def current_error() -> float:
        return _root_sum((_sq_l2(u.values - _apply_projection(u, factors), u.axes),))

    u_norm = norm_l2(u)
    best_err = current_error()
    history = [best_err]
    best = dict(factors)  # the update replaces bases and never writes into one

    for _ in range(max_iters):
        for j in range(u.ndim):
            mat = matricize(_analysis(u, {i: q for i, q in factors.items() if i != j}), j)
            w = u.axes[j].quad_weights
            scaled = mat * np.sqrt(w)[:, None]
            q, _, _ = np.linalg.svd(scaled, full_matrices=False)
            new = q[:, : rv[j]] / np.sqrt(w)[:, None]
            _fix_signs(new)
            factors[j] = new
        err = current_error()
        improvement = history[-1] - err
        history.append(err)
        if err < best_err:
            best_err, best = err, dict(factors)
        if improvement <= _HOOI_TOL * u_norm:
            break

    projected = GridFunction(u.axes, _apply_projection(u, best))
    return TuckerApprox(tuple(best.values()), projected, tuple(history))


def _gamma_gram(system: SingularSystem, deriv: DerivativeData, r: int) -> np.ndarray:
    """Gamma^T W Gamma over the first r transferred derivatives."""
    g = deriv.gammas[:, :r]
    return g.T @ (system.row_weights[:, None] * g)


def _top_ratio(gram: np.ndarray, r: int) -> float:
    """sqrt of the top eigenvalue of I + gram[:r, :r], at least one."""
    top = float(np.linalg.eigvalsh(np.eye(r) + gram[:r, :r])[-1])
    return float(np.sqrt(max(top, 1.0)))


def h1_sandwich(
    u: GridFunction,
    rank_vectors,
    *,
    systems: tuple[SingularSystem, ...],
    derivs: tuple[DerivativeData, ...],
) -> list[dict]:
    """Measure the truncation at each rank vector and evaluate its bounds.

    The mode bases are nested, so the core of u at the componentwise
    largest clamped ranks holds the core at each rank vector as a leading
    sub-block (De Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal.
    Appl. 21(4), 2000). So u is analysed once, and the kept side of each
    truncation is measured from its slice C. With Q_j the leading left
    vectors of mode j, M_j = Q_j^T W_j Q_j and G_j = (D_j Q_j)^T W_j (D_j Q_j)
    (the FD2 stencil applied to the columns of Q_j), both formed once per
    call and cut to the leading block C has entries for, P u = C x_i Q_i
    and D_j acts on Q_j alone, so in the grid quadrature exactly

        |P u|_0^2 = <C x_i M_i, C>,   |D_j P u|_0^2 = <C x_j G_j x_{i != j} M_i, C>.

    M_j is computed rather than taken as the identity, so the kept side
    does not lean on the orthonormality of the bases. Each form is paired
    exactly, <C x_i A_i, C> = <C x_{i<l} A_i, C x_l A_l^T> with l = d - 1:
    C x_l M_l^T and C x_l G_l^T are formed once per core, and the heads
    over the other modes share prefixes (4 mode products in 2D, 7 in
    3D). The transpose stays: M_l, G_l are symmetric to roundoff.

    The residual is measured on the grid once per call, at the largest
    ranks. With P' that projection, C' = u x_i Q_i^T W_i its core (the
    one above) and a = u - P' u, ``_grid_residual`` synthesizes P' u into
    one workspace, overwrites it with a and differentiates it into a
    second buffer reused for every direction: |a|_0^2, |D_j a|_0^2 and
    the coefficients A of a (Q_i^T W_i in every mode) and B_j of D_j a
    ((D_j Q_j)^T W_j in mode j, Q_i^T W_i elsewhere). With X the core C'
    with the block C set to zero, u - P u = a + X x_i Q_i, as the leading
    columns are nested. No orthonormality enters, and exactly, in the
    grid quadrature,

        |u - P u|_0^2       = |a|_0^2 + 2 <A, X> + <X x_i M_i, X>,
        |D_j (u - P u)|_0^2 = |D_j a|_0^2 + 2 <B_j, X> + <X x_j G_j x_{i != j} M_i, X>.

    So each rank vector costs only coefficient-space work of the core's
    size, and the grid work does not grow with the number of rank
    vectors. The identity subtracts no large terms: |a|_0^2 is the
    smallest residual of the call, A is roundoff for orthonormal bases
    (C' x_i M_i = C') and the X terms sum over the entries outside C, so
    the roundoff stays at the grid measurement's eps |u| |u - P u|. (The
    form |u|^2 - |P u|^2 would carry about eps |u|^2 into deep tails.)
    Each mode's series are summed once per call into prefix sums by the
    kernel of ``series_split``, so the two agree bit for bit: kept sums
    forward, tails from the far end. Each Gamma^T W Gamma is formed once
    per mode, each Bernstein constant once per mode and clamped rank.

    The same pass measures each single-mode projection P_j, onto the
    first r_j left vectors of mode j, in coefficient space: with M the
    mode-j unfolding, W_c its column weights, F = Q_j^T W_j M(u), E =
    (D_j Q_j)^T W_j M(D_j u) and H = F W_c F^T, summed over k, l < r_j,
    |P_j u|^2 = sum H_kk, |D_j P_j u|^2 = sum (G_j)_kl H_kl and <D_j u,
    D_j P_j u> = sum (E W_c F^T)_kk. The residual terms follow as |u|^2 -
    |P_j u|^2 and |D_j u|^2 - 2 <D_j u, D_j P_j u> + |D_j P_j u|^2, a
    subtraction that costs about eps |u|^2, which the identity checks
    divide out. No sigma or transferred derivative enters. F and E come
    from one mode-j product of u (``_single_mode_coeffs``), which moves
    D_j onto the basis, so D_j u is not formed again.

    ``systems`` and ``derivs`` (one per mode, modes 0..d-1 in order, else
    ModeError) are the caller's.

    Returns one rank report per rank vector, in order, each the JSON
    object ``report.json`` holds under ``reports[]``:

    - ``rank_vector``;
    - ``measured``, grid norms: of the residual ``l2``, ``h1`` and ``ek``
      (per direction); of the truncation, from the core as above,
      ``approx_h1_sq`` and ``approx_ek_sq`` (|P u|_{e_j}^2 per direction
      j, which no check reads); and ``single_mode``, per mode j,
      ``l2_error_sq``, ``ek_norm_sq`` and ``ek_error_sq``: |u - P_j u|_0^2,
      |P_j u|_{e_j}^2 and |u - P_j u|_{e_j}^2, r_j capped at the held
      columns, as is every basis and core block;
    - ``series``, the exact spectral series: ``h1_norm_sq`` and
      ``h1_error_sq`` (two-sided, so null unless d = 2), ``ek_norm_sq``
      and ``ek_error_sq`` (one-direction, per mode) and ``l2_error_sq``
      (per mode, tail_j below), r_j capped at k_max: past the held
      columns they differ from the measured values only by sigmas below
      1e-12 sigma_1;
    - ``bounds``, the two-sided estimates, and ``bernstein``, per mode j
      the norm-ratio (Bernstein) constant Gamma_j(r_j), the largest
      |v|_{e_j} / |v|_0 over the span of the first r_j left vectors: the
      square root of the top eigenvalue of I + Gamma^T W Gamma over the
      first r_j transferred derivatives, r_j capped at the retained
      count; at least one, and 1.0 at rank 0. The package computes it
      here only.

    A report judges nothing: the run's checks read its brackets
    (``experiment._brackets``) and give the one verdict.

    ``bounds.norm_lower`` is |u|_0^2 minus the per-mode L2 tail sum,
    floored at zero: for the orthogonal projection P, |P u|_1^2 >=
    |P u|_0^2 = |u|_0^2 - |u - P u|_0^2, at every rank vector.

    ``bounds.quasi_opt_reference`` is d times the largest per-mode L2
    tail tail_j = sum_{k>r_j} sigma_k^2 of mode j. With u* a best
    approximation of multilinear rank r,

        |u - P u|_0^2 <= sum_j tail_j <= d max_j tail_j <= d |u - u*|_0^2,

    the last step because the mode-j unfolding of u* has rank <= r_j, so
    |u - u*|_0^2 >= tail_j by Eckart-Young. The check thus follows from
    the ``residual_l2`` bracket up to tolerance; it still compares a grid
    measurement with a spectral quantity. In 2D it is d times the exact
    optimum, the tail of the rank-min(r_0, r_1) truncation.

    Both L2 brackets have the lower side max_j tail_j: with P_{-j} the
    projection on the modes other than j, u - P u = (u - P_j u) +
    P_j (u - P_{-j} u), two orthogonal terms, so |u - P u|_0^2 >= tail_j;
    in 2D this is an equality (Eckart-Young).
    """
    rvs = [_check_rank_vector(rv, u.shape) for rv in rank_vectors]
    d = u.ndim
    systems, derivs = _per_mode(systems, d, "systems"), _per_mode(derivs, d, "derivs")
    if not rvs:
        return []

    bases = _leading_bases(systems, [max(rv[j] for rv in rvs) for j in range(d)])
    top = [q.shape[1] for q in bases.values()]
    core = _analysis(u, bases)
    # per mode: M_j, D_j Q_j and G_j
    mass = [_analysis_map(u, q, j) @ q for j, q in bases.items()]
    dq, stiff = zip(*(_stencil_gram(u, q, j) for j, q in bases.items()))
    top_coeffs, top_sq = _grid_residual(u, core, bases, dq)
    args = zip(systems, derivs, bases.values(), dq, stiff)
    single = [_single_mode_sq(u, s, dv, q, dqj, g) for s, dv, q, dqj, g in args]
    # per mode: prefix sums of sigma^2 (1 + dpsi^2) and of sigma^2, and Gamma^T W Gamma
    sums_w = [_series_sums(s, dv) for s, dv in zip(systems, derivs)]
    sums_sq = [_series_sums(s) for s in systems]
    grams = [_gamma_gram(s, dv, min(t, dv.count)) for s, dv, t in zip(systems, derivs, top)]
    h1_sums = _series_sums(systems[0], *derivs) if d == 2 else None
    # per mode: Gamma_j at each clamped rank the call names
    bernstein = [
        {r: _top_ratio(g, r) if r >= 1 else 1.0 for r in {min(rv[j], dv.count) for rv in rvs}}
        for j, (g, dv) in enumerate(zip(grams, derivs))
    ]

    def report(rv):
        cut = [min(r, s.k_max) for r, s in zip(rv, systems)]  # of the series
        held = [min(r, t) for r, t in zip(rv, top)]  # of the core and single_mode
        block = tuple(slice(c) for c in held)
        approx_sq = _core_sobolev_sq(core[block], mass, stiff)
        comp = core.copy()  # X, the core outside the block
        comp[block] = 0.0
        quad = _core_sobolev_sq(comp, mass, stiff)
        resid_sq = [
            t + 2.0 * float(np.vdot(c, comp)) + q for t, c, q in zip(top_sq, top_coeffs, quad)
        ]

        kept_w, tail_w = ([a[c] for a, c in zip(side, cut)] for side in zip(*sums_w))
        kept_sq, tail_sq = ([a[c] for a, c in zip(side, cut)] for side in zip(*sums_sq))
        l2_tail_sq_sum = float(np.sum(tail_sq))
        h1_norm_sq = h1_error_sq = None  # the two-sided series needs d = 2
        if d == 2:
            h1_norm_sq, h1_error_sq = (a[min(*rv, systems[0].k_max)] for a in h1_sums)

        return {
            "rank_vector": list(rv),
            "measured": {
                "l2": _root_sum(resid_sq[:1]),
                "h1": _root_sum(resid_sq),
                "ek": [_root_sum((resid_sq[0], dsq)) for dsq in resid_sq[1:]],
                "approx_h1_sq": _root_sum(approx_sq) ** 2,
                "approx_ek_sq": [_root_sum((approx_sq[0], dsq)) ** 2 for dsq in approx_sq[1:]],
                "single_mode": {k: [s[k][c] for s, c in zip(single, held)] for k in single[0]},
            },
            "series": {
                "h1_norm_sq": h1_norm_sq,
                "h1_error_sq": h1_error_sq,
                "ek_norm_sq": kept_w,
                "ek_error_sq": tail_w,
                "l2_error_sq": tail_sq,
            },
            "bounds": {
                "l2_tail_sq_sum": l2_tail_sq_sum,
                "quasi_opt_reference": d * max(tail_sq),
                "h1_lower": float(np.max(tail_w)),
                "h1_upper": float(np.sum(tail_w) + l2_tail_sq_sum),
                "norm_lower": max(0.0, kept_sq[0] + tail_sq[0] - l2_tail_sq_sum),
                "norm_upper": float(np.sum(kept_w)),
            },
            "bernstein": [b[min(r, dv.count)] for b, r, dv in zip(bernstein, rv, derivs)],
        }

    return [report(rv) for rv in rvs]
