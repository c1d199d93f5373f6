"""Numerical observability constants for the backward dual flow.

Assembles quadratic forms over terminal data in the first N Stokes modes:
the backward energy |q(tau)|_H^2, the localized outputs int |chi q|^2 and
int |P_M(chi q)|^2, and the H1 variant.  The constants are largest
generalized eigenvalues of (energy form, output form); the truncated
constant D(M) bounds the dual state's initial energy through the
M-truncated localized output, which is what makes interval null controls
uniformly bounded.

All output quadratures use the same stage-sampled dual states as the
control pairing, so downstream bounds hold in exact discrete algebra.
Localized outputs are taken mean-free: on the torus the control basis
excludes the zero wavevector, and the constant component of chi*q carries
no H1 decay, so it is quotiented out of the output consistently.
"""

from dataclasses import dataclass, replace

import numpy as np

from .quadmin import DEFAULT_PINV_RTOL
from .spectral import Actuator, ChiMask, SpectralSpace


def _grid_derivative_ops(n: int):
    """Spectral d/dx, d/dy on the n x n grid as (n,n)-shaped multipliers."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None], k[None, :]


def _chi_output_kernels(space: SpectralSpace, chi: ChiMask):
    """Quadratic-form kernels on Stokes coefficients for the localized outputs.

    Returns (W_l2, W_h1): c -> |Q0(chi u)|_{L2}^2 and |Q0(chi u)|_{H1}^2
    with Q0 the mean-removal projection.
    """
    K, n = space.K, space.n
    n2 = n * n
    # columns: mean-free grid fields of chi * e_j
    T = (chi.values.ravel()[None, :] * space.mode_fields[:K].reshape(K, 2, n2)).copy()
    T -= T.mean(axis=2, keepdims=True)
    W_l2 = space.quad_w * np.einsum("icp,jcp->ij", T, T)

    kx, ky = _grid_derivative_ops(n)
    W_h1 = W_l2.copy()
    Tg = T.reshape(K, 2, n, n)
    hat = np.fft.fft2(Tg)
    for mult in (1j * kx, 1j * ky):
        D = np.fft.ifft2(mult[None, None] * hat).real.reshape(K, 2, n2)
        W_h1 += space.quad_w * np.einsum("icp,jcp->ij", D, D)
    return W_l2, W_h1


@dataclass
class ObservabilityForms:
    """Symmetric PSD forms over terminal data q1 in the first N Stokes modes."""

    N: int
    M_list: tuple
    energy: np.ndarray          # (N, N): q1 -> |q(tau)|_H^2
    output_full: np.ndarray     # (N, N): q1 -> int |chi q|^2 dt
    output_h1: np.ndarray       # (N, N): q1 -> int |chi q|_H1^2 dt
    output_by_mode: np.ndarray  # (M_max, N, N): rank-one slices per control mode
    betas: np.ndarray           # Laplacian eigenvalues aligned with output_by_mode

    def output_truncated(self, M: int) -> np.ndarray:
        """q1 -> int |P_M(chi q)|^2 dt."""
        if not 0 <= M <= self.output_by_mode.shape[0]:
            raise ValueError(f"M={M} outside the assembled control table")
        return self.output_by_mode[:M].sum(axis=0) if M else np.zeros((self.N, self.N))

    def leading(self, N: int) -> "ObservabilityForms":
        """The forms restricted to terminal data in the first N modes
        (leading N x N blocks, views into these forms)."""
        if not 1 <= N <= self.N:
            raise ValueError(f"N={N} outside [1, {self.N}]")
        return replace(self, N=N, energy=self.energy[:N, :N],
                       output_full=self.output_full[:N, :N],
                       output_h1=self.output_h1[:N, :N],
                       output_by_mode=self.output_by_mode[:, :N, :N])


def build_forms(space: SpectralSpace, chi: ChiMask, actuator: Actuator, M_list,
                dt: float, sweep) -> ObservabilityForms:
    """The forms over terminal data in the first N Stokes modes, from the
    (nodes, stages) of one interval's adjoint block sweep of the first N
    unit directions (stages of shape (n_steps, K, N)).  The actuator's M
    control modes bound the listed M."""
    nodes, stages = sweep
    N = stages.shape[-1]
    if not 1 <= N <= space.K:
        raise ValueError(f"N={N} outside [1, K]")
    M_list = tuple(sorted(set(int(m) for m in M_list)))

    energy = nodes[0].T @ nodes[0]
    W_l2, W_h1 = _chi_output_kernels(space, chi)
    output_full = np.zeros((N, N))
    output_h1 = np.zeros((N, N))
    by_mode = np.zeros((actuator.M, N, N))
    for Z in stages:                                 # (K, N)
        output_full += dt * (Z.T @ W_l2 @ Z)
        output_h1 += dt * (Z.T @ W_h1 @ Z)
        P = actuator.mat.T @ Z                       # (M, N)
        by_mode += dt * np.einsum("ia,ib->iab", P, P)
    return ObservabilityForms(N=N, M_list=M_list, energy=energy,
                              output_full=output_full, output_h1=output_h1,
                              output_by_mode=by_mode,
                              betas=space.betas[: actuator.M].copy())


def _max_generalized_eig(R: np.ndarray, O: np.ndarray,
                         rtol: float = DEFAULT_PINV_RTOL) -> float:
    """sup over q1 of (q1' R q1)/(q1' O q1); inf when O has a kernel direction
    carrying R-energy."""
    R = 0.5 * (R + R.T)
    O = 0.5 * (O + O.T)
    w, U = np.linalg.eigh(O)
    cut = rtol * max(w.max(), 0.0)
    keep = w > cut
    if not keep.any():
        return float("inf") if np.linalg.norm(R) > 0 else 0.0
    U_ker = U[:, ~keep]
    if U_ker.size and np.linalg.norm(R @ U_ker) > np.sqrt(rtol) * max(np.linalg.norm(R), 1e-300):
        return float("inf")
    U_r = U[:, keep]
    scale = 1.0 / np.sqrt(w[keep])
    Rc = (scale[:, None] * (U_r.T @ R @ U_r)) * scale[None, :]
    return float(np.linalg.eigvalsh(0.5 * (Rc + Rc.T)).max())


def truncated_constant(forms: ObservabilityForms, M: int,
                       rtol: float = DEFAULT_PINV_RTOL) -> float:
    """Best constant D(M) with |q(tau)|_H^2 <= D(M) * int |P_M(chi q)|^2 dt."""
    return _max_generalized_eig(forms.energy, forms.output_truncated(M), rtol)


def full_constant(forms: ObservabilityForms, rtol: float = DEFAULT_PINV_RTOL) -> float:
    """Untruncated constant D(inf) against int |chi q|^2 dt."""
    return _max_generalized_eig(forms.energy, forms.output_full, rtol)


def h1_l2_ratio(forms: ObservabilityForms, rtol: float = DEFAULT_PINV_RTOL) -> float:
    """Largest ratio of the H1 output over the L2 output on the dual flow."""
    return _max_generalized_eig(forms.output_h1, forms.output_full, rtol)


def select_m1(forms: ObservabilityForms, slack: float = 2.0,
              rtol: float = DEFAULT_PINV_RTOL) -> dict:
    """Smallest listed M with D(M) <= slack * D(inf), slack > 1.

    slack = 2 mirrors the factor the truncation proof absorbs.  When no
    listed M qualifies, extrapolates the needed M from the requirement
    beta_M >= slack * C_h1l2 using the empirical beta trend and flags it.
    """
    if not slack > 1.0:
        raise ValueError("slack must exceed 1")
    d_inf = full_constant(forms, rtol)
    table = {M: truncated_constant(forms, M, rtol) for M in forms.M_list}
    report = {"D_inf": d_inf, "D_table": table, "slack": slack,
              "C_h1l2": h1_l2_ratio(forms, rtol)}
    if not np.isfinite(d_inf):
        report.update(M1=None, extrapolated=False,
                      note="untruncated constant infinite (unobservable mask)")
        return report
    for M in forms.M_list:
        if np.isfinite(table[M]) and table[M] <= slack * d_inf * (1.0 + 1e-12):
            report.update(M1=M, extrapolated=False)
            return report
    # beta grows ~ linearly with the mode index on the torus; need
    # beta_M large enough to absorb the H1/L2 constant with the given slack
    c = report["C_h1l2"]
    betas = forms.betas
    density = len(betas) / betas[-1]
    factor = slack / (slack - 1.0)
    report.update(M1=None, extrapolated=True,
                  M_extrapolated=int(np.ceil(density * factor * c)))
    return report
