"""Two-dimensional KP-side checks: the x-antiderivative of the transverse
derivative, the closed Pohojaev-type identity chain, and the anisotropic
Gagliardo-Nirenberg ratio.

No 2D solitary wave is solved for and no 2D evolution is run; the chain of
identities is algebraic and the functional checks operate on explicitly
constructed fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .functionals import Report
from .spectral import _readonly

__all__ = [
    "Grid2D",
    "RealField2D",
    "KPIntegrals",
    "KPConsistencyReport",
    "BLTReport",
    "make_grid2d",
    "field2d_from_values",
    "field2d_from_function",
    "dx_inv_dy",
    "kp_identity_consistency",
    "blt_ratio",
    "kp_rescale",
]


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Doubly periodic box [-Lx, Lx) x [-Ly, Ly); axis 0 is x, axis 1 is y."""

    nx: int
    ny: int
    Lx: float
    Ly: float
    dx: float
    dy: float
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray   # shape (nx, 1), fft order
    eta: np.ndarray  # shape (1, ny), fft order


def make_grid2d(nx: int, ny: int, Lx: float, Ly: float) -> Grid2D:
    for n, name in ((nx, "nx"), (ny, "ny")):
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"{name} must be a power of two with {name} >= 8, got {n}")
    if not (Lx > 0 and Ly > 0):
        raise ValueError("Lx and Ly must be positive")
    dx, dy = 2.0 * Lx / nx, 2.0 * Ly / ny
    x = -Lx + dx * np.arange(nx)
    y = -Ly + dy * np.arange(ny)
    xi = 2.0 * np.pi * np.fft.fftfreq(nx, d=dx)[:, None]
    eta = 2.0 * np.pi * np.fft.fftfreq(ny, d=dy)[None, :]
    return Grid2D(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), dx=dx, dy=dy,
                  x=_readonly(x), y=_readonly(y),
                  xi=_readonly(xi), eta=_readonly(eta))


@dataclass(frozen=True, eq=False)
class RealField2D:
    grid: Grid2D
    values: np.ndarray  # shape (nx, ny)


def field2d_from_values(grid: Grid2D, values) -> RealField2D:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.nx, grid.ny):
        raise ValueError(f"expected shape {(grid.nx, grid.ny)}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return RealField2D(grid=grid, values=_readonly(values))


def field2d_from_function(grid: Grid2D, f: Callable) -> RealField2D:
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return field2d_from_values(grid, f(X, Y))


def _zero_x_mean_violation(u: RealField2D) -> float:
    """Largest |x-line mean| relative to the sup of the field."""
    means = np.mean(u.values, axis=0)
    sup = float(np.max(np.abs(u.values)))
    if sup == 0.0:
        return 0.0
    return float(np.max(np.abs(means)) / sup)


def dx_inv_dy(u: RealField2D) -> RealField2D:
    """Apply the multiplier eta/xi, i.e. the x-antiderivative of u_y.

    Defined only on fields whose x-lines all have zero mean (the xi = 0
    transform plane vanishes); anything else is rejected.
    """
    if _zero_x_mean_violation(u) > 1e-10:
        raise ValueError("dx_inv_dy requires zero x-line means (xi = 0 modes): "
                         "u(., y) must integrate to zero in x for every y")
    grid = u.grid
    xi_safe = np.where(grid.xi != 0.0, grid.xi, 1.0)
    mult = np.where(grid.xi != 0.0, grid.eta / xi_safe, 0.0)
    out = np.fft.ifft2(mult * np.fft.fft2(u.values)).real
    return field2d_from_values(grid, out)


def _dx_alpha_power(u: RealField2D, s: float) -> float:
    """int |D_x^{s/2} u|^2 by Parseval."""
    grid = u.grid
    uhat = np.fft.fft2(u.values)
    w = grid.dx * grid.dy / (grid.nx * grid.ny)
    return float(w * np.sum(np.abs(grid.xi) ** s * np.abs(uhat) ** 2))


# -- the identity chain ----------------------------------------------------------


@dataclass(frozen=True)
class KPIntegrals:
    """The four integrals of the solitary-wave identities: a = int u^2,
    b = int u^3, d = int v^2, e = int |D_x^{a/2}u|^2.

    For genuine solutions all of a, d, e are nonnegative; the consistency
    solve reports a <= 0 in regimes where no solitary wave exists.
    """

    a: float
    b: float
    d: float
    e: float
    alpha: float
    c: float
    eps: int

    def __post_init__(self):
        if self.d < 0 or self.e < 0:
            raise ValueError("d and e are squared norms and must be nonnegative")


@dataclass(frozen=True)
class KPConsistencyReport:
    integrals: KPIntegrals
    residual_po1: float
    residual_po2: float
    residual_energ: float
    nonexistence: bool     # a <= 0: contradiction with int u^2 > 0
    trivial_only: bool     # eps = +1 forces d = e = 0

    def to_dict(self) -> dict:
        """Flat JSON form: the integrals' fields beside the residuals."""
        d = asdict(self)
        return {**d.pop("integrals"), **d}


def kp_identity_consistency(alpha: float, c: float, eps: int) -> KPConsistencyReport:
    """Solve the derived relations of the identity chain with e normalized to 1
    and substitute back into the three source identities.

    With eps = -1: d = alpha e / 4, b = 3 alpha e, a = (5 alpha - 4) e / (4c);
    a <= 0 exactly when alpha <= 4/5, flagging non-existence.  With eps = +1
    the transverse/dispersive balance forces d = e = 0 and only the trivial
    solution remains.
    """
    if not (c > 0 and np.isfinite(c)):
        raise ValueError(f"velocity must be positive and finite, got {c}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if eps == 1:
        # 2 d + (alpha/2) e = 0 with d, e >= 0
        a = b = d = e = 0.0
        trivial = True
    else:
        e = 1.0
        d = alpha * e / 4.0
        b = 3.0 * alpha * e
        a = (5.0 * alpha - 4.0) * e / (4.0 * c)
        trivial = False
    po1 = c * a / 2.0 - b / 3.0 + eps * d / 2.0 + (alpha + 1.0) / 2.0 * e
    po2 = -c * a / 2.0 + b / 6.0 - eps * d / 2.0 - e / 2.0
    energ = -c * a + b / 2.0 + eps * d - e
    integrals = KPIntegrals(a=a, b=b, d=max(d, 0.0), e=e, alpha=alpha, c=c, eps=eps)
    return KPConsistencyReport(
        integrals=integrals,
        residual_po1=float(abs(po1)),
        residual_po2=float(abs(po2)),
        residual_energ=float(abs(energ)),
        nonexistence=bool(a <= 0.0),
        trivial_only=trivial,
    )


# -- anisotropic Gagliardo-Nirenberg ratio ---------------------------------------


@dataclass(frozen=True)
class BLTReport(Report):
    alpha: float
    ratio: float
    exp_l2: float
    exp_hx: float
    cube: float
    l2: float
    hx: float
    transverse: float


def blt_ratio(f: RealField2D, alpha: float) -> BLTReport:
    """R(f) = |f|_3^3 / (|f|_2^a1 ||f||_{Hx}^a2 |dx^{-1}f_y|_2^{1/2}) with
    a1 = (5a-4)/(a+2), a2 = (18-5a)/(2(a+2)); the anisotropic inequality
    bounds R uniformly.  The exponents satisfy a1 + a2 + 1/2 = 3, so R is
    invariant under amplitude scaling."""
    if not (0.8 < alpha <= 1.0):
        raise ValueError(f"blt_ratio needs alpha in (4/5, 1], got {alpha}")
    grid = f.grid
    area = grid.dx * grid.dy
    cube = float(area * np.sum(np.abs(f.values) ** 3))
    if cube <= 0.0:
        raise ValueError("blt_ratio needs a nonzero field")
    l2 = float(np.sqrt(area * np.sum(f.values**2)))
    hx = float(np.sqrt(l2**2 + _dx_alpha_power(f, alpha)))
    v = dx_inv_dy(f)
    transverse = float(np.sqrt(area * np.sum(v.values**2)))
    if transverse <= 1e-14:
        raise ValueError("blt_ratio needs |dx^{-1} f_y|_2 > 0 (f must depend on y)")
    a1 = (5.0 * alpha - 4.0) / (alpha + 2.0)
    a2 = (18.0 - 5.0 * alpha) / (2.0 * (alpha + 2.0))
    ratio = cube / (l2**a1 * hx**a2 * np.sqrt(transverse))
    return BLTReport(alpha=alpha, ratio=float(ratio), exp_l2=a1, exp_hx=a2,
                     cube=cube, l2=l2, hx=hx, transverse=transverse)


def kp_rescale(f: Callable, lam: float, alpha: float, grid: Grid2D) -> RealField2D:
    """Sample the anisotropic rescaling lam^alpha f(lam x, lam^{(alpha+2)/2} y)
    of a callable field; the invariance scaling of the 2D family.  The L^2
    norm transforms with the factor lam^{(3 alpha - 4)/4}."""
    if not lam > 0:
        raise ValueError(f"scaling factor must be positive, got {lam}")
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    vals = lam**alpha * f(lam * X, lam ** ((alpha + 2.0) / 2.0) * Y)
    return field2d_from_values(grid, vals)
