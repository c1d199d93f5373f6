"""Truncated spectral model of the flow domain.

Everything lives on the 2D torus [0, 2pi)^2.  Velocity states are real
coefficient vectors over an orthonormal basis of divergence-free Fourier
modes (the Stokes eigenbasis); controls live in a separate basis of
vector-valued Fourier modes (the Laplacian eigenbasis).  Both bases exclude
the zero wavevector, so all fields are mean-free.

For each wavevector k in the half-lattice {ky > 0} u {ky = 0, kx > 0} the
Stokes basis carries a cosine and a sine mode with direction k_perp/|k|,
eigenvalue alpha = nu*|k|^2.  The Laplacian basis carries one mode per
(wavevector, component, phase), eigenvalue beta = |k|^2.  Mode tables are
sorted by eigenvalue with deterministic lexicographic tie-breaks.

Grid quadrature is exact for products of retained modes because the
resolution is required to satisfy n >= 3*max|k| + 1; pseudospectral
products are therefore alias-free (the effective form of the 2/3 rule).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DealiasingError

TWO_PI = 2.0 * np.pi

# unit-L2 normalisation of cos(k.x)/sin(k.x) vector modes on the torus
_NORM = 1.0 / (np.sqrt(2.0) * np.pi)


def _half_lattice(kmax: int) -> list[tuple[int, int]]:
    """Wavevectors with ky > 0, or ky = 0 and kx > 0, up to |k|_inf <= kmax."""
    out = []
    for ky in range(kmax + 1):
        for kx in range(-kmax, kmax + 1):
            if ky == 0 and kx <= 0:
                continue
            out.append((kx, ky))
    return out


def _sorted_stokes_descriptors(kmax: int) -> list[tuple[int, int, int]]:
    """(kx, ky, phase) sorted by (|k|^2, kx, ky, phase); phase 0 = cos, 1 = sin."""
    descs = []
    for kx, ky in _half_lattice(kmax):
        for phase in (0, 1):
            descs.append((kx, ky, phase))
    descs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1], d[2]))
    return descs


def _sorted_laplacian_descriptors(kmax: int) -> list[tuple[int, int, int, int]]:
    """(kx, ky, comp, phase) sorted by (|k|^2, kx, ky, comp, phase)."""
    descs = []
    for kx, ky in _half_lattice(kmax):
        for comp in (0, 1):
            for phase in (0, 1):
                descs.append((kx, ky, comp, phase))
    descs.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1], d[2], d[3]))
    return descs


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class SpectralSpace:
    """Immutable truncated model: mode tables, eigenvalues, grid machinery.

    A velocity state ("field") is a real vector of length K holding Stokes
    coefficients.  The three norms are diagonal in this basis:

        |u|_H^2 = sum c_j^2,  |u|_V^2 = sum alpha_j c_j^2,
        |u|_D(L)^2 = sum alpha_j^2 c_j^2.
    """

    nu: float
    K: int
    n: int
    modes: tuple            # (kx, ky, phase) per retained Stokes mode
    alphas: np.ndarray      # (K,) Stokes eigenvalues nu*|k|^2, nondecreasing
    lap_modes: tuple        # (kx, ky, comp, phase) per Laplacian mode
    betas: np.ndarray       # (m_max,) Laplacian eigenvalues |k|^2, nondecreasing
    # internal padded table (always whole cos/sin pairs) and grid operators
    K_pad: int
    alphas_pad: np.ndarray
    mode_fields: np.ndarray     # (K_pad, 2*n*n) flattened mode grids
    lap_fields: np.ndarray      # (m_max, 2*n*n)
    deriv_x: np.ndarray         # (K_pad, K_pad) coefficient map of d/dx
    deriv_y: np.ndarray
    quad_w: float               # quadrature weight per grid point

    # -- construction helpers -------------------------------------------------

    def pad(self, c: np.ndarray) -> np.ndarray:
        """Zero-pad the last axis from K to K_pad coefficients; input that is
        already K_pad long (such as a padded derivative) passes through."""
        if c.shape[-1] == self.K_pad:
            return c
        return np.concatenate([c, np.zeros(c.shape[:-1] + (self.K_pad - self.K,))],
                              axis=-1)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Grid reconstruction, shape (2, n, n).  Divergence-free by construction."""
        return (self.pad(np.asarray(c, float)) @ self.mode_fields).reshape(2, self.n, self.n)

    def analyze(self, w: np.ndarray) -> np.ndarray:
        """Stokes coefficients of the H-orthogonal projection of a grid field.

        Performs the Leray projection and the truncation to K modes in one
        quadrature pass.
        """
        return (self.quad_w * (self.mode_fields @ np.ravel(w)))[: self.K]

    def norms(self, c: np.ndarray) -> tuple[float, float, float]:
        """(H, V, D(L)) norms of a coefficient vector."""
        c2 = np.asarray(c, float)[: self.K] ** 2
        return (
            float(np.sqrt(c2.sum())),
            float(np.sqrt((self.alphas * c2).sum())),
            float(np.sqrt((self.alphas**2 * c2).sum())),
        )

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.arange(self.n) * (TWO_PI / self.n)
        return np.meshgrid(x, x, indexing="ij")


def build_space(nu: float, K: int, n: int, m_max: int | None = None) -> SpectralSpace:
    """Build the truncated model.

    Requires n >= 3*max|k| + 1 over the retained Stokes modes so that all
    triple products of retained modes integrate exactly on the grid (the
    equality case n = 3*max|k| still aliases, hence the strict form).
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if K < 1:
        raise ValueError("mode count K must be >= 1")
    if n < 4:
        raise DealiasingError(f"grid n={n} too small")

    # generous candidate bound, then trim to the first K (padded to pairs)
    kmax_cand = int(np.ceil(np.sqrt(K))) + 2
    descs = _sorted_stokes_descriptors(kmax_cand)
    while len(descs) < K + 1:
        kmax_cand += 2
        descs = _sorted_stokes_descriptors(kmax_cand)
    K_pad = K + (K % 2)
    descs = descs[:K_pad]

    kmax_inf = max(max(abs(kx), abs(ky)) for kx, ky, _ in descs)
    if n < 3 * kmax_inf + 1:
        raise DealiasingError(
            f"grid n={n} too small for dealiased products at cutoff "
            f"max|k|={kmax_inf}; need n >= {3 * kmax_inf + 1}"
        )

    if m_max is None:
        m_max = max(4 * K, 32)
    lap_descs_all = _sorted_laplacian_descriptors((n - 1) // 2)
    if m_max > len(lap_descs_all):
        raise ValueError(
            f"m_max={m_max} exceeds the {len(lap_descs_all)} Laplacian modes "
            f"resolvable on an n={n} grid"
        )
    lap_descs = lap_descs_all[:m_max]

    x = np.arange(n) * (TWO_PI / n)
    X, Y = np.meshgrid(x, x, indexing="ij")

    mode_fields = np.zeros((K_pad, 2, n, n))
    for j, (kx, ky, phase) in enumerate(descs):
        kn = np.hypot(kx, ky)
        ex, ey = -ky / kn, kx / kn    # unit divergence-free direction k_perp/|k|
        trig = np.cos(kx * X + ky * Y) if phase == 0 else np.sin(kx * X + ky * Y)
        mode_fields[j, 0] = _NORM * ex * trig
        mode_fields[j, 1] = _NORM * ey * trig
    mode_fields = mode_fields.reshape(K_pad, 2 * n * n)

    lap_fields = np.zeros((m_max, 2, n, n))
    for i, (kx, ky, comp, phase) in enumerate(lap_descs):
        trig = np.cos(kx * X + ky * Y) if phase == 0 else np.sin(kx * X + ky * Y)
        lap_fields[i, comp] = _NORM * trig
    lap_fields = lap_fields.reshape(m_max, 2 * n * n)

    # d/dx_i in coefficients: flips the cos/sin partner, scales by -+k_i
    deriv_x = np.zeros((K_pad, K_pad))
    deriv_y = np.zeros((K_pad, K_pad))
    index = {d: j for j, d in enumerate(descs)}
    for j, (kx, ky, phase) in enumerate(descs):
        partner = index[(kx, ky, 1 - phase)]
        sign = -1.0 if phase == 0 else 1.0
        deriv_x[partner, j] = sign * kx
        deriv_y[partner, j] = sign * ky

    alphas_pad = np.array([nu * (kx * kx + ky * ky) for kx, ky, _ in descs])
    betas = np.array([float(kx * kx + ky * ky) for kx, ky, _, _ in lap_descs])

    space = SpectralSpace(
        nu=float(nu),
        K=K,
        n=n,
        modes=tuple(descs[:K]),
        alphas=alphas_pad[:K].copy(),
        lap_modes=tuple(lap_descs),
        betas=betas,
        K_pad=K_pad,
        alphas_pad=alphas_pad,
        mode_fields=mode_fields,
        lap_fields=lap_fields,
        deriv_x=deriv_x,
        deriv_y=deriv_y,
        quad_w=(TWO_PI / n) ** 2,
    )
    _freeze(space.alphas, space.alphas_pad, space.mode_fields, space.lap_fields,
            space.deriv_x, space.deriv_y, space.betas)
    return space


@dataclass(frozen=True)
class ChiMask:
    """Smooth localisation mask sampled on the grid, 0 <= chi <= 1.

    The bump profile is exp(1 - 1/(1 - r^2/R^2)) inside the (torus-wrapped)
    ball of the given radius and 0 outside; chi == 1 at the center.  The
    sharpness parameter rho only documents the sublevel support
    omega_chi = {chi > rho}; computations use chi itself.
    """

    values: np.ndarray          # (n, n)
    center: tuple[float, float]
    radius: float
    rho: float
    sup_norm: float

    @staticmethod
    def bump(space: SpectralSpace, center=(np.pi, np.pi), radius=2.0, rho=0.1) -> "ChiMask":
        if radius <= 0:
            raise ValueError("mask radius must be positive")
        X, Y = space.grid_points()
        dx = np.abs(X - center[0])
        dy = np.abs(Y - center[1])
        dx = np.minimum(dx, TWO_PI - dx)
        dy = np.minimum(dy, TWO_PI - dy)
        r2 = (dx**2 + dy**2) / radius**2
        vals = np.zeros_like(X)
        inside = r2 < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        if not vals.any():
            raise ValueError("mask vanishes on the whole grid; enlarge the radius")
        _freeze(vals)
        return ChiMask(values=vals, center=tuple(center), radius=float(radius),
                       rho=float(rho), sup_norm=float(vals.max()))


@dataclass(frozen=True)
class Actuator:
    """Dense realisation of eta -> Leray(chi * P_M eta) in Stokes coefficients.

    The adjoint v -> P_M(chi v) is exactly the transpose of the same matrix
    because both sides use the one grid quadrature.
    """

    M: int
    mat: np.ndarray             # (K, M)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        return self.mat.T @ v

    @property
    def gram(self) -> np.ndarray:
        """K x K kernel of v -> Leray(chi P_M (chi v))."""
        return self.mat @ self.mat.T


def build_actuator(space: SpectralSpace, chi: ChiMask, M: int) -> Actuator:
    """Column i holds the Stokes coefficients of Leray(chi * phi_i)."""
    if not 1 <= M <= len(space.lap_modes):
        raise ValueError(f"control dimension M={M} outside the Laplacian table "
                         f"(size {len(space.lap_modes)})")
    chi_flat = np.concatenate([np.ravel(chi.values)] * 2)
    mat = space.quad_w * (space.mode_fields[: space.K] @ (chi_flat[:, None] * space.lap_fields[:M].T))
    _freeze(mat)
    return Actuator(M=M, mat=mat)
