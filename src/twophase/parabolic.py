"""Time-domain two-phase diffusion and its Laplace-Stieltjes bridge.

The Cauchy problem u_t = div(sigma grad u) with indicator initial data is
advanced on one-dimensional finite-volume grids built from a catalog
surface: a slab for the hyperplane, a radial grid with weight r^(d-1),
d = `radial_dim`, for a sphere or cylinder.  The interface sits exactly on
a cell face and the two-point fluxes are harmonic, so the conormal flux is
continuous across the discrete interface.  The first steps use implicit
Euler to damp the indicator shock, then Crank-Nicolson; a geometric time
grid resolves the fast initial transient that the transform integrand
needs.

The transform w(x, lambda) = lambda int_0^inf e^(-lambda t) u(x, t) dt is
evaluated by trapezoidal quadrature on the simulated window plus an
analytic tail bound e^(-lambda T) (the integrand is bounded by 1), and is
cross-checked against the elliptic solutions at the same rate.

The interface temperature u_I(t) is the rigidity observable: it stays at
the interface constant k for a flat interface and drifts away from k for a
curved one.  Runs at different resolutions or surfaces are independent;
each time-stepping loop owns its grid exclusively.

The stepper keeps O(cells + steps x probes) memory: it advances one field
in place and records, at every step, only the cells that bracket the probe
points named up front plus the two cells of the interface, never the whole
(steps x cells) history.  A probe must therefore be named before the run.
It steps the field plus the constant STEP_OFFSET = 2^-900, which the
conservative step carries unchanged, so that no cell's value decays into
the subnormal range, where arithmetic takes the processor's slow path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dptsv

from .errors import InsufficientHorizon, InvalidArgument
from .geometry import Surface
from .medium import TwoPhaseMedium


@dataclass(frozen=True)
class Grid1D:
    """Finite-volume grid with radial weight r^(d-1) (d = 1 for a slab).

    faces has n+1 entries; sigma is per cell.  interface_index is the face
    index carrying the conductivity jump.
    """

    faces: np.ndarray
    sigma: np.ndarray
    d: int
    interface_index: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.faces[1:] + self.faces[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.faces)

    @property
    def volumes(self) -> np.ndarray:
        """Cell integrals of r^(d-1): the widths on a slab (d = 1)."""
        f = self.faces
        return np.diff(np.abs(f) ** self.d * np.sign(f)) / self.d

    @property
    def face_areas(self) -> np.ndarray:
        return np.abs(self.faces) ** (self.d - 1)

    def conductances(self) -> np.ndarray:
        """Two-point transmissibilities across interior faces."""
        w = self.widths
        s = self.sigma
        resist = 0.5 * w[:-1] / s[:-1] + 0.5 * w[1:] / s[1:]
        return self.face_areas[1:-1] / resist


def _graded_faces(start: float, stop: float, h_fine: float, fine_width: float,
                  h_max: float) -> np.ndarray:
    """Faces from start toward stop: uniform h_fine near start, then growing
    by 6% a cell up to h_max."""
    faces = [start]
    h = h_fine
    direction = 1.0 if stop > start else -1.0
    while (stop - faces[-1]) * direction > 1e-12:
        if abs(faces[-1] - start) >= fine_width:
            h = min(h * 1.06, h_max)
        nxt = faces[-1] + direction * h
        if (stop - nxt) * direction < 0.25 * h:
            nxt = stop
        faces.append(nxt)
    return np.asarray(faces)


def far_wall_distance(medium: TwoPhaseMedium, t_end: float) -> float:
    """Distance 8 sqrt(2 M t_end) + 2 from the interface to the zero-flux
    wall: eight diffusion lengths at the largest conductivity, so the
    wall's influence does not reach the interface by t_end."""
    return 8.0 * math.sqrt(2.0 * medium.M * t_end) + 2.0


def interface_grid(surface: Surface, medium: TwoPhaseMedium, *,
                   h_fine: float, far: float, fine_width: float = 1.5,
                   h_max: float = 0.05) -> Grid1D:
    """Grid with the conductivity interface exactly on a face.

    Plane: slab [-far, far] around the interface at 0, sigma_m on the
    negative side.  Sphere/cylinder of radius R: radial grid [0, R + far]
    with weight r^(d-1), d = `surface.radial_dim`, and sigma_s inside R.
    h_fine, h_max and far must be positive, or the faces never end.
    """
    if not (h_fine > 0.0 and h_max > 0.0 and far > 0.0):
        raise InvalidArgument(f"h_fine, h_max and far must be positive, got "
                              f"{h_fine!r}, {h_max!r}, {far!r}")
    d = surface.radial_dim
    if d == 1:  # slab: the sigma_m side is x < 0
        R, stop, below, above = 0.0, -far, medium.sigma_m, medium.sigma_s
    else:       # ball or tube: sigma_s inside r = R, the grid stops at r = 0
        R, stop, below, above = surface.R, 0.0, medium.sigma_s, medium.sigma_m
    inner = _graded_faces(R, stop, h_fine, fine_width, h_max)
    outer = _graded_faces(R, R + far, h_fine, fine_width, h_max)
    faces = np.concatenate([inner[::-1], outer[1:]])
    centers = 0.5 * (faces[1:] + faces[:-1])
    sigma = np.where(centers < R, below, above)
    return Grid1D(faces=faces, sigma=sigma, d=d, interface_index=len(inner) - 1)


def indicator_data(grid: Grid1D) -> np.ndarray:
    """Initial temperature: 1 on the sigma_m side, 0 inside the domain.

    The sigma_m side is the negative half-line of a slab (d = 1) and the
    exterior of a radial interface.
    """
    c = grid.centers
    x_i = grid.faces[grid.interface_index]
    return np.where(c < x_i if grid.d == 1 else c > x_i, 1.0, 0.0)


def _bracketing_cells(grid: Grid1D, x) -> np.ndarray:
    """Ascending indices of the cells whose centers bracket each x: the pair
    np.interp reads, one cell at the last center.  An x outside the first
    and last centers raises InvalidArgument, where np.interp would clamp."""
    c = grid.centers
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (x >= c[0]) & (x <= c[-1])
    if not inside.all():
        raise InvalidArgument(f"probe x = {float(x[~inside][0])!r} lies "
                              f"outside the cell centers "
                              f"[{float(c[0])!r}, {float(c[-1])!r}]")
    j = np.searchsorted(c, x, side="right") - 1
    return np.unique(np.concatenate([j, np.minimum(j + 1, len(c) - 1)]))


@dataclass(frozen=True)
class TimeSeries:
    """Temperatures at increasing times (times[0] = 0 holds u0) in the
    recorded cells: U[k, m] is u(times[k]) in cell cells[m], with cells
    ascending.  `evolve` records only the cells its probes bracket and the
    two cells of the interface, so a probe must be named up front; the
    grid's centers as probes record every cell.
    """

    times: np.ndarray
    U: np.ndarray
    cells: np.ndarray
    grid: Grid1D

    def _columns(self, cells: np.ndarray) -> np.ndarray:
        """Columns of U holding the given cells; a cell that was not
        recorded raises InvalidArgument."""
        col = np.minimum(np.searchsorted(self.cells, cells),
                         len(self.cells) - 1)
        missing = self.cells[col] != cells
        if missing.any():
            raise InvalidArgument(f"cells {cells[missing].tolist()} were not "
                                  "recorded; name the probe when evolving")
        return col

    def interface_values(self) -> np.ndarray:
        g = self.grid
        i = g.interface_index
        wl, wr = g.widths[i - 1], g.widths[i]
        sl, sr = g.sigma[i - 1], g.sigma[i]
        al, ar = 2.0 * sl / wl, 2.0 * sr / wr
        left, right = self._columns(np.array([i - 1, i]))
        return (al * self.U[:, left] + ar * self.U[:, right]) / (al + ar)

    def probe(self, x: float) -> np.ndarray:
        """u(x, t_k): linear interpolation, flux-weighted at the interface.

        Interpolating across the interface would smear the conductivity
        kink, so a probe on the interface face itself uses the two-sided
        flux reconstruction instead.  Any other x must lie within the cell
        centers, in cells that were recorded; otherwise InvalidArgument.
        """
        g = self.grid
        if abs(x - g.faces[g.interface_index]) < 1e-12:
            return self.interface_values()
        pair = _bracketing_cells(g, x)
        c = g.centers[pair]
        return np.array([np.interp(x, c, row)
                         for row in self.U[:, self._columns(pair)]])


def geometric_times(t_start: float, t_end: float, ratio: float = 1.08,
                    include=()) -> np.ndarray:
    """Geometric time grid from t_start to t_end, with 0 prepended.

    Extra times in `include` are merged in exactly so probes can read them
    off without interpolation in time.  t_start > 0 and ratio > 1, or the
    grid never reaches t_end.
    """
    if not (t_start > 0.0 and ratio > 1.0):
        raise InvalidArgument(f"need t_start > 0 and ratio > 1, got "
                              f"{t_start!r}, {ratio!r}")
    ts = [t_start]
    while ts[-1] < t_end:
        ts.append(min(ts[-1] * ratio, t_end))
    ts = np.unique(np.concatenate([[0.0], ts, np.asarray(include, dtype=float)]))
    return ts


# the constant `evolve` adds to the field it steps.  Indicator data decay
# through the subnormal range (below 2^-1022) on the side that starts at 0,
# and every solve and elementwise operation on such a cell takes the
# processor's slow path; a field offset by a constant c never comes near
# it.  Every value above about 2^-848 absorbs 2^-900 bit for bit, so the
# recorded u - c is the unshifted step's u wherever it is not itself that
# small.  An O(1) offset would also remove the subnormals, but it puts an
# O(1) value into the nearly singular constant mode of vol/dt + theta L:
# on the plane at h_fine = 1e-4, the interface value's largest error over
# t in [0.01, 1] against the same scheme in long double grows from 1.9e-9
# to 4.3e-9
STEP_OFFSET = 2.0 ** -900


def evolve(grid: Grid1D, times, probes, u0: Optional[np.ndarray] = None
           ) -> TimeSeries:
    """Advance the diffusion equation over the given time grid, recording u
    in the cells that bracket the points `probes` and the interface face.

    times[0] must be 0.  The first 10 steps are implicit Euler, which damps
    the indicator shock, and the rest Crank-Nicolson; each step factorizes
    its SPD tridiagonal matrix vol/dt + theta L as LDL^T (LAPACK dptsv) and
    raises InvalidArgument if it is not positive definite.  u0 defaults to
    the indicator data of the grid's interface.  Discrete conservation holds
    up to boundary flux (zero-flux far walls); values stay in [0, 1] for
    indicator data.

    The loop steps u + STEP_OFFSET: the far walls carry zero flux and L 1 =
    0, so the step maps the constant to itself, and it keeps the cold
    side's tail out of the subnormal range.  U[0] is u0 itself and U[k] is
    the stepped field less the offset, which is the unshifted step's value
    bit for bit wherever that value is above about 2^-848.

    Each step runs in place on preallocated vectors, so memory is
    O(cells + steps x probes): a probe must be named here to be read off
    the result, and `grid.centers` records every cell.  A probe outside
    the cell centers raises InvalidArgument.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise InvalidArgument("times must start at 0")
    cells = _bracketing_cells(grid, np.append(np.asarray(probes, dtype=float),
                                              grid.faces[grid.interface_index]))
    if u0 is None:
        u0 = indicator_data(grid)
    vol = grid.volumes
    cond = grid.conductances()
    summed = np.zeros_like(vol)  # the diagonal of L: each cell's conductances
    summed[:-1] += cond
    summed[1:] += cond
    U = np.empty((len(times), len(cells)))
    u = np.array(u0, dtype=float)
    U[0] = u[cells]
    u += STEP_OFFSET
    # the step's vectors, overwritten every step: dptsv factorizes diag and
    # off in place and leaves the solution in rhs, which then swaps with u
    vol_dt, diag, rhs = (np.empty_like(vol) for _ in range(3))
    off, flux = np.empty_like(cond), np.empty_like(cond)
    for step in range(1, len(times)):
        dt = times[step] - times[step - 1]
        theta = 1.0 if step <= 10 else 0.5
        np.divide(vol, dt, out=vol_dt)
        np.multiply(vol_dt, u, out=rhs)
        if theta < 1.0:
            np.subtract(u[1:], u[:-1], out=flux)
            flux *= cond
            flux *= 1.0 - theta
            rhs[:-1] += flux
            rhs[1:] -= flux
        np.multiply(summed, theta, out=diag)
        diag += vol_dt
        np.multiply(cond, -theta, out=off)
        *_, u_next, info = dptsv(diag, off, rhs, overwrite_d=1,
                                 overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise InvalidArgument(f"step {step}: the step matrix is not "
                                  f"positive definite (dptsv info={info})")
        u, rhs = u_next, u
        np.subtract(u[cells], STEP_OFFSET, out=U[step])
    return TimeSeries(times=times, U=U, cells=cells, grid=grid)


@dataclass(frozen=True)
class TransformResult:
    """Laplace-Stieltjes transform values at probe points with a tail bound."""

    lam: float
    probes: np.ndarray
    values: np.ndarray
    tail_bound: float


def laplace_stieltjes(series: TimeSeries, lam: float, probes,
                      tol: float) -> TransformResult:
    """w(x, lambda) = lambda int e^(-lambda t) u dt from a simulated series.

    Trapezoidal in time over the simulated window [0, T] (the t = 0 row
    carries the exact indicator data), plus the analytic tail
    u(T) e^(-lambda T); since 0 <= u <= 1 the tail error is below
    e^(-lambda T), which must be under `tol`.
    """
    if not lam > 0.0:
        raise InvalidArgument("lambda must be positive")
    T = series.times[-1]
    tail = math.exp(-lam * T)
    if tail > tol:
        raise InsufficientHorizon(
            f"e^(-lambda T) = {tail:.3e} exceeds tolerance {tol:.1e}; "
            "simulate a longer window")
    probes = np.asarray(probes, dtype=float)
    vals = np.empty_like(probes)
    t = series.times
    # product integration: the exponential weight is integrated exactly
    # against the piecewise-linear interpolant of u, so a constant u
    # transforms to itself up to roundoff
    dt = np.diff(t)
    e0 = np.exp(-lam * t[:-1])
    e1 = np.exp(-lam * t[1:])
    i0 = e0 - e1                      # integral of lam e^(-lam t)
    i1 = i0 / lam - dt * e1           # integral of lam e^(-lam t) (t - t0)
    for i, x in enumerate(probes):
        u = series.probe(x)
        slope = np.diff(u) / dt
        vals[i] = float(np.sum(u[:-1] * i0 + slope * i1) + u[-1] * tail)
    return TransformResult(lam=lam, probes=probes, values=vals, tail_bound=tail)


def interface_constancy_probe(surface: Surface, medium: TwoPhaseMedium,
                              t_grid) -> dict:
    """Max deviation of the interface temperature from the constant k.

    Runs the 1d/radial stepper from t = 1e-6 at two resolutions, h_fine =
    2e-3 and h_max = 0.02 over a fine core of width 2, then both halved
    (the whole mesh is refined, not just the core), out to
    `far_wall_distance` from the interface; the reported deviation
    is grid-converged when the two runs agree (Richardson gap small against
    the deviation itself).  Flat interfaces stay at k up to discretization;
    curved ones drift, which is the observable behind the rigidity of
    planes.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    t_end = float(t_grid.max())
    far = far_wall_distance(medium, t_end)
    k = medium.k
    devs = []
    for scale in (1.0, 2.0):
        grid = interface_grid(surface, medium, h_fine=2e-3 / scale,
                              h_max=0.02 / scale, fine_width=2.0, far=far)
        times = geometric_times(1e-6, t_end, include=t_grid)
        series = evolve(grid, times, ())
        mask = np.isin(series.times, t_grid)
        devs.append(np.abs(series.interface_values()[mask] - k))
    dev_coarse, dev_fine = devs
    return {
        "max_deviation": float(dev_fine.max()),
        "max_deviation_coarse": float(dev_coarse.max()),
        "richardson_gap": float(np.max(np.abs(dev_fine - dev_coarse))),
        "t_grid": t_grid,
        "deviations": dev_fine,
    }
