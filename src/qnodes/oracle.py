"""Grid-based verification path: expectation values by quadrature.

Nothing in this module uses the closed-form moments; states are sampled
(or handed over as eigenvectors) on band-limited grids, and every moment
is recomputed from the rectangle rule or from series coefficients that
one FFT gives: Fourier series on open and periodic grids, and between
the box's walls the sine series of the samples (DST-I) for <p^2> and the
cosine series of the density (DCT-I) for <x> and Var x.  On the ring's
periodic grid x is the angle theta and p the angular momentum L_z, so the
same two functions give the ring's conjugate pair.  Grids, samples and
moments are in the system's natural units (`model.scales`);
`oracle_uncertainties` rescales its record once.

Every moment function takes one sample, giving floats, or a stack of
samples (`grids.SampledFunction`), giving one value per row, bit for bit
the row's own.  A guard that fails raises for the stack's first failing
row, with that row's message, and names the row in the error's `row`.
`columns_from_stack` turns a stack's moments into one array per column
of a record in one pass; `record_from_samples` is its one-sample form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .analytic import UncertaintyRecord, box_psi, ring_state_values
from .errors import GridError, NormalizationError
from .grids import (
    GridSpec,
    SampledFunction,
    floored,
    per_sample,
    quad,
    raise_first,
    spectral_moments,
)
from .model import (
    Box,
    Oscillator,
    RingSuperposition,
    SystemSpec,
    predicted_node_count,
    scales,
    validate_state,
)
from .special import oscillator_stacks

__all__ = [
    "default_grid",
    "sample_state",
    "sample_levels",
    "alias_check",
    "position_moments",
    "momentum_moments",
    "oracle_uncertainties",
    "record_from_samples",
    "columns_from_stack",
    "ring_lz_by_quadrature",
    "ring_theta_by_quadrature",
]

# Normalization tolerances: precondition vs hard error.
_NORM_TOL = 1e-6
# Resolution guard for <p^2> and <L_z^2>: the largest share of the second
# moment that wavenumbers above half (open grids: 7/8 of) the Nyquist
# wavenumber may carry.  The rectangle rule is exact below Nyquist, and the
# share measures how near a state comes: oscillator 0:200's norms, Var x
# and <p^2> stay within 1e-14 of the closed forms from 473 points (share
# 2.0e-10, the first grid rejected) to 431 (0.2), and miss by 7e-5 at 401.
_BAND_SHARE_TOL = 1e-10
# Open grids: the largest end-sample density, relative to the mean density
# 1/(upper - lower) of a normalized state, of a sample that has decayed.
_EDGE_DENSITY_TOL = 1e-16

# Box and ring grids: the most intervals (box) or points (ring) the rule
# may ask for (n < 2^19, |m| < 2^18).
_MAX_BAND_POINTS = 1 << 20


def default_grid(spec: SystemSpec, idx: int = 0, points: int | None = None) -> GridSpec:
    """Natural-unit grid suited to the system and quantum number: the one
    grid rule of every path (`eigensolver.default_eigen_grid` takes the
    grid of its top level).

    The box grid is [0, 1], the ring's [0, 2 pi).  The oscillator
    half-width L is the classical turning point sqrt(2n+1) plus a 10-sigma
    tail margin.  The oscillator is its own Fourier transform, so the same
    L bounds the wavenumbers of every level up to n; by default the
    oscillator grid takes h <= pi / L, which puts them below the Nyquist
    wavenumber, where the rectangle rule integrates the density exactly:
    2 ceil(L^2 / pi) + 1 points.

    A box state with n <= M = |idx| is a sine polynomial, and by default
    the box grid takes the fewest 2^a 3^b intervals J > 2M (a >= 1), at
    least 4 (J + 1 points); a ring state with |m| <= M is a trigonometric
    polynomial, and the ring grid takes the fewest 2^a 3^b points N > 4M
    (a >= 1), at least 8.  The top level's wavenumber then lies below half
    the Nyquist wavenumber and its density's below Nyquist, where the sine,
    cosine and Fourier sums of the state and its density are exact and the
    band guards pass.  Such a size is never more than the fewest power of
    two, and its FFT runs only radix-2 and radix-3 passes, which keep a
    constant's exact zeros (m = 0 reads 0.0; radix-5 and larger passes do
    not).  A rule asking for more than 2^20 intervals or points raises
    GridError; `points` overrides the rule everywhere.
    """
    if spec.boundary == "open":
        half_width = max(math.sqrt(2.0 * abs(int(idx)) + 1.0) + 10.0, 12.0)
        if points is None:
            points = 2 * math.ceil(half_width**2 / math.pi) + 1
        return GridSpec(-half_width, half_width, points, "open")
    ring = spec.boundary == "periodic"
    if points is None:
        top = abs(int(idx))
        # in floats, as for the oscillator: a level too large for one overflows
        need = (4.0 if ring else 2.0) * float(top) + 1.0
        if need > _MAX_BAND_POINTS:
            system, symbol, unit = ("ring", "|m|", "points") if ring else ("box", "n", "intervals")
            raise GridError(
                f"{system} grid for {symbol} = {top} needs at least {need:.0f} {unit}, "
                f"above the limit of {_MAX_BAND_POINTS}"
            )
        points = max(_smooth_size(int(need)), 8 if ring else 4) + (not ring)
    if ring:
        return GridSpec(0.0, 2.0 * math.pi, points, "periodic")
    return GridSpec(0.0, 1.0, points, "dirichlet")


def _smooth_size(need: int) -> int:
    """The fewest 2^a 3^b >= need with a >= 1: over each 3^b, the fewest
    2^a with 2^a 3^b >= need."""
    powers_of_3 = (3**b for b in range(need.bit_length()))
    return min(p << max(((need - 1) // p).bit_length(), 1) for p in powers_of_3)


def sample_state(
    spec: SystemSpec,
    state: int | RingSuperposition,
    grid: GridSpec | None = None,
) -> SampledFunction:
    """Sample the natural-unit eigenfunction (or ring superposition) on a
    natural-unit grid, by default the grid of the state's level (for a
    superposition, of its largest |m|); a level it aliases raises GridError.
    A level's sample is row 0 of its one-level stack (`sample_levels`)."""
    superposition = spec.boundary == "periodic" and isinstance(state, RingSuperposition)
    levels = [m for m, _ in state.terms] if superposition else [state]
    levels = [validate_state(spec, k) for k in levels]
    grid = grid or default_grid(spec, max(map(abs, levels)))
    raise_first(alias_check(spec, levels, grid))
    if superposition:
        return SampledFunction(grid, ring_state_values(state, grid.x))
    return SampledFunction(grid, next(sample_levels(spec, [levels], grid)).values[0])


def sample_levels(spec: SystemSpec, stacks, grid: GridSpec):
    """Iterate one stack of samples on `grid` per list of levels in
    `stacks`, row i holding level i of its list; the levels ascend and
    are distinct across all lists.

    A box or ring stack is sampled by one broadcast call.  Oscillator
    levels come from one streamed ladder pass (`special.oscillator_stacks`),
    whose level range is checked here, before any level is sampled.
    """
    stacks = [list(levels) for levels in stacks]
    if isinstance(spec, Oscillator):
        return (SampledFunction(grid, rows) for rows in oscillator_stacks(grid.x, stacks))
    psi = box_psi if isinstance(spec, Box) else ring_state_values
    natural = (type(spec)(),) if isinstance(spec, Box) else ()
    return (
        SampledFunction(grid, psi(*natural, np.array(levels)[:, None], grid.x))
        for levels in stacks
    )


def alias_check(spec: SystemSpec, levels, grid: GridSpec):
    """The `raise_first` check that `grid` samples each of `levels` below
    its Nyquist wavenumber (a GridError naming the level): beyond it, a
    ring or box level reads as a lower one, where no band guard sees it."""
    ring = spec.boundary == "periodic"
    first = grid.points // 2 + 1 if ring else grid.points - 1  # the lowest aliased level
    symbol = "|m|" if ring else "n"
    aliased = [abs(m) >= first and spec.boundary != "open" for m in levels]
    return np.array(aliased, dtype=bool), lambda row: GridError(
        f"grid too coarse: the {grid.points}-point {type(spec).__name__.lower()} grid aliases "
        f"{symbol} = {abs(levels[row])} (every {symbol} >= {first})"
    )


def _norm_check(psi: SampledFunction):
    """The `raise_first` check that the quadrature of |psi|^2 is 1 (a
    NormalizationError)."""
    norm = np.atleast_1d(psi.norm)
    return np.abs(norm - 1.0) > _NORM_TOL, lambda row: NormalizationError(
        f"state norm^2 is {float(norm[row])!r}, deviates beyond {_NORM_TOL}"
    )


def _folded_mean(psi: SampledFunction) -> float:
    """Trapezoid quadrature of x |psi|^2 on an open grid, folded about its
    centre c: c times the norm plus h sum_{j<m} w_j (x_j - c)
    (rho_j - rho_{N-1-j}), with m the centre index and w_j the trapezoid
    weights (1/2 at the end, 1 inside).  An exactly even density on a
    grid centred on 0 gives exactly 0.0."""
    grid, rho = psi.grid, psi.density
    m = grid.points // 2
    centre = 0.5 * (grid.lower + grid.upper)
    t = rho[..., :m] - rho[..., :m:-1]
    t *= grid.x[:m] - centre
    return centre * psi.norm + grid.h * (t[..., 1:].sum(axis=-1) + 0.5 * t[..., 0])


@lru_cache(maxsize=16)
def _cosine_weights(points: int) -> np.ndarray:
    """(2, 2 points) weights that take the interleaved `rfft` of the even
    extension of a box density on `points` points, its DCT-I c_0 ... c_J,
    to c_0 <u - 1/2> and c_0 <(u - 1/2)^2>, u in [0, 1]; read-only because
    cached.  The density's cosine interpolant is (c_0 + 2 sum_{0<j<J} c_j
    cos j pi u + c_J cos J pi u) / 2J, and the integral of (u - 1/2)^p
    cos j pi u over [0, 1] is ((-1)^j - 1) / (j pi)^2 for p = 1 and
    ((-1)^j + 1) / (j pi)^2 for p = 2 (1/12 at j = 0)."""
    j = np.arange(1, points, dtype=float)
    inner = np.where(j < points - 1, 2.0, 1.0) / (j * math.pi) ** 2
    w = np.zeros((2, 2 * points))
    w[:, 2::2] = ((-1.0) ** j + np.array([[-1.0], [1.0]])) * inner
    w[1, 0] = 1.0 / 12.0
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def _theta_weights(points: int) -> np.ndarray:
    """(2, 2 (points // 2 + 1)) weights that take the interleaved (re, im)
    `rfft` of a density on `points` ring points, c_k, to c_0 <u - 1/2> and
    c_0 <(u - 1/2)^2>, u = theta / 2 pi in [0, 1); read-only because
    cached.  By the Fourier series u - 1/2 = -sum_k sin k theta / k pi and
    (u - 1/2)^2 = 1/12 + sum_k cos k theta / (k pi)^2, these are sum_k
    Im c_k / k pi and c_0 / 12 + sum_k Re c_k / (k pi)^2 over every bin
    0 < k < points / 2."""
    k = np.arange(1, (points + 1) // 2, dtype=float) * math.pi
    w = np.zeros((2, 2 * (points // 2 + 1)))
    w[0, 3 : 2 * k.size + 2 : 2] = 1.0 / k
    w[1, 2 : 2 * k.size + 2 : 2] = 1.0 / k**2
    w[1, 0] = 1.0 / 12.0
    w.flags.writeable = False
    return w


def position_moments(psi: SampledFunction) -> tuple:
    """(<x>, Var x) by quadrature of x |psi|^2 and (x - <x>)^2 |psi|^2.

    On open grids <x> is folded about the grid centre (`_folded_mean`), so
    a state of definite parity has <x> exactly 0.0, and the variance is
    integrated about the mean, not as <x^2> - <x>^2, which would cancel
    digits far from the origin.  On a closed grid x |psi|^2 is not
    periodic, so a quadrature rule would hold it only at a power of h.
    There one `rfft` times cached series weights gives <u - 1/2> and
    <(u - 1/2)^2>, u = (x - lower) / span, exact for a band-limited
    density: between hard walls the density's DCT-I (the `rfft` of its
    even extension) with the cosine series (`_cosine_weights`); on a
    periodic grid, where x is the angle theta on the branch [0, 2 pi) (a
    GridError on any other), its Fourier series with theta's
    (`_theta_weights`).  Then <x> = lower + span (1/2 + <u - 1/2>) and
    Var x = span^2 (<(u - 1/2)^2> - <u - 1/2>^2).
    """
    raise_first(_norm_check(psi))
    grid, rho = psi.grid, psi.density
    if grid.boundary == "open":
        mean_x = _folded_mean(psi)
        spread = grid.x - np.asarray(mean_x)[..., None]
        np.square(spread, out=spread)
        spread *= rho
        return per_sample(psi, mean_x, quad(grid, spread))
    if grid.boundary == "dirichlet":
        rho, w = np.concatenate([rho, rho[..., -2:0:-1]], axis=-1), _cosine_weights(grid.points)
    elif grid.lower != 0.0 or abs(grid.upper - 2.0 * math.pi) > 1e-12:
        raise GridError("theta statistics assume the branch [0, 2 pi)")
    else:
        w = _theta_weights(grid.points)
    v = np.fft.rfft(rho, axis=-1).view(np.float64)
    moments = np.matmul(w, v[..., None])[..., 0] / v[..., :1]
    mean_u, span = moments[..., 0], grid.upper - grid.lower
    mean_x = grid.lower + span * (0.5 + mean_u)
    return per_sample(psi, mean_x, span**2 * (moments[..., 1] - np.square(mean_u)))


def momentum_moments(psi: SampledFunction) -> tuple:
    """(<p>, <p^2>, Var p) in natural units (hbar = 1); on a periodic grid p
    is L_z = -i d/dtheta, whose eigenvalues are the integer wavenumbers.

    All three come from one FFT by Parseval (`grids.spectral_moments`), of
    the odd extension between hard walls.  Var p is the centred sum of
    w (kappa - <p>)^2 |c|^2, so a definite-m ring state has Var p at
    roundoff; a real sample's <p> is exactly 0.0 and its Var p exactly
    <p^2>.  An open-grid sample must have decayed at both ends, and a
    GridError is raised when wavenumbers above half the Nyquist wavenumber
    (7/8 of it on an open grid) carry more than `_BAND_SHARE_TOL` of <p^2>
    (floored at hbar^2): the grid does not resolve the state, or a ring
    state with |m| > N/4 on N points aliases.
    """
    grid = psi.grid
    checks = [_norm_check(psi)]
    if grid.boundary == "open":
        rho = psi.density
        edge = np.atleast_1d(np.maximum(rho[..., 0], rho[..., -1]) * (grid.upper - grid.lower))
        undecayed = edge > _EDGE_DENSITY_TOL, lambda row: GridError(
            f"state has not decayed at the open grid's ends: end density "
            f"{float(edge[row]):.3e} of the mean exceeds {_EDGE_DENSITY_TOL:.0e}"
        )
        checks.append(undecayed)
    mean_p, mean_p2, share, var_p = spectral_moments(psi)
    raise_first(*checks, _band_check(grid, share))
    return mean_p, mean_p2, var_p


def _band_check(grid: GridSpec, share):
    """The `raise_first` check that the high-band share of <p^2> (on a
    periodic grid, of <L_z^2>) is at most `_BAND_SHARE_TOL`; above it the
    grid does not resolve the state (a GridError naming where the band
    starts)."""
    share = np.atleast_1d(share)
    band = "7/8 of" if grid.boundary == "open" else "half"
    periodic = grid.boundary == "periodic"
    quantity, symbol = ("angular momentum", "L_z") if periodic else ("momentum", "p")
    return share > _BAND_SHARE_TOL, lambda row: GridError(
        f"grid too coarse for {quantity} moments: wavenumbers above {band} the "
        f"Nyquist wavenumber carry {float(share[row]):.3e} of <{symbol}^2>, "
        f"above {_BAND_SHARE_TOL:.0e}"
    )


def ring_lz_by_quadrature(psi: SampledFunction) -> tuple[float, float, float]:
    """(<L_z>, Delta L_z, <L_z^2>) in units of hbar of samples on a periodic
    grid: (<p>, sqrt(Var p), <p^2>) of `momentum_moments`."""
    if psi.grid.boundary != "periodic":
        raise GridError("ring L_z statistics need a periodic grid")
    mean, mean2, var = momentum_moments(psi)
    return per_sample(psi, mean, np.sqrt(var), mean2)


def ring_theta_by_quadrature(psi: SampledFunction) -> tuple[float, float]:
    """Naive [0, 2 pi) interval statistics (<theta>, Delta theta) of samples
    on a periodic grid: (<x>, sqrt(Var x)) of `position_moments`, Var x
    floored at 0 as in `columns_from_stack`."""
    if psi.grid.boundary != "periodic":
        raise GridError("ring theta statistics need a periodic grid")
    mean, var = position_moments(psi)
    return per_sample(psi, mean, np.sqrt(floored(var, 0.0)))


def oracle_uncertainties(
    spec: SystemSpec,
    state: int | RingSuperposition,
    grid: GridSpec | None = None,
) -> UncertaintyRecord:
    """Physical UncertaintyRecord purely from quadrature moments.

    A `grid`, if given, is in natural units.
    """
    record = record_from_samples(spec, state, sample_state(spec, state, grid))
    return record.rescaled(scales(spec))


def record_from_samples(
    spec: SystemSpec, state: int | RingSuperposition, psi: SampledFunction
) -> UncertaintyRecord:
    """Natural-unit UncertaintyRecord of the natural-unit sample `psi` of
    `state`: the one row of `columns_from_stack`."""
    nodes = -1 if isinstance(state, RingSuperposition) else predicted_node_count(spec, state)
    return UncertaintyRecord.from_columns(columns_from_stack(spec, psi), nodes_predicted=nodes)


def columns_from_stack(spec: SystemSpec, psi: SampledFunction) -> dict[str, np.ndarray]:
    """Natural-unit columns of the natural-unit samples `psi` (one sample,
    or a stack of one per row): an array per `analytic.COLUMN_UNITS` name.

    The one moment pipeline of the oracle and eigen paths: each moment
    function takes the whole stack once, which builds its |psi|^2 and
    norms once.  On the ring's periodic grid x is theta and p is L_z.  The
    energy is <p^2>/2, plus k <x^2>/2 for a `spec.stiffness` k; the bound
    is 1/2.  A grid of a boundary other than `spec.boundary` raises
    GridError.  Every row check sits in the first moment function's one
    `raise_first`, so an error is that of the first failing row, named by
    its index as the error's `row`.
    """
    if psi.grid.boundary != spec.boundary:
        article = "an" if spec.boundary == "open" else "a"
        raise GridError(f"{type(spec).__name__.lower()} states need {article} {spec.boundary} grid")
    _, mean_p2, var_p = momentum_moments(psi)
    mean_x, var_x = position_moments(psi)
    dq, dp = np.sqrt(floored(var_x, 0.0)), np.sqrt(var_p)
    energy = mean_p2 / 2.0
    if spec.stiffness:
        energy += 0.5 * spec.stiffness * (var_x + np.square(mean_x))
    dq, dp, product, energy = np.atleast_1d(dq, dp, dq * dp, energy)
    bound = np.full(energy.shape, 0.5)
    return {"energy": energy, "delta_q": dq, "delta_p": dp, "product": product, "bound": bound}
