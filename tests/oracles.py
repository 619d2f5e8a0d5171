"""Independent oracles the tests check the library against.

Everything here deliberately avoids the package's own numerics: the shooting
oracle integrates the scalar ODE with scipy's adaptive RK, ranks come from
plain SVD, the 2x2 eigenvalues from the quadratic formula, the chart
Riccati right-hand side and the one-step Moebius action are the formulas
themselves, and passages through pi are read off continuous eigenphase
branches one branch at a time.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp


def riccati_rhs(s, coeffs) -> np.ndarray:
    """Right-hand side c + d s - s (a + b s) of the chart Riccati equation at
    the chart ``s`` (a SymmetricChart), exactly symmetrized; the derivative
    the Moebius step must reproduce."""
    m = s.mat
    rhs = coeffs.c + coeffs.d @ m - m @ (coeffs.a + coeffs.b @ m)
    return 0.5 * (rhs + rhs.T)


def mobius_apply(s: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """One step of the chart Moebius action s -> (C + D s)(A + B s)^{-1} by
    the propagator ``phi`` = [[A, B], [C, D]], the per-step reference for the
    chart route's scanned runs; returns (new s, effective denominator
    condition, pre-symmetrization defect, sign of det of the denominator).

    The effective condition compares the smallest singular value of the
    denominator against the scale of its inputs, ||[A B]||_2 max(1, ||s||_2);
    the plain condition number is blind to a uniformly tiny denominator
    (always 1 for n = 1).
    """
    n = s.shape[0]
    num = phi[n:, :n] + phi[n:, n:] @ s
    den = phi[:n, :n] + phi[:n, n:] @ s
    sv_min = float(np.linalg.svd(den, compute_uv=False)[-1])
    scale = float(np.linalg.norm(phi[:n], 2)) * max(1.0, float(np.linalg.norm(s, 2)))
    cond = np.inf if sv_min == 0.0 else scale / sv_min
    if not np.isfinite(cond):
        raise np.linalg.LinAlgError("Moebius denominator exactly singular")
    s_new = np.linalg.solve(den.T, num.T).T
    defect = float(np.max(np.abs(s_new - s_new.T)))
    return 0.5 * (s_new + s_new.T), cond, defect, float(np.linalg.slogdet(den)[0])


def eig2x2_quadratic(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 2x2 matrix by the quadratic formula."""
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return np.array([mean - disc, mean + disc])


def branch_passages(branches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upward and downward passages through pi (mod 2 pi) per step of
    continuous eigenphase branches (N, n); each an int array of N - 1.

    A branch value b lies on the sheet ceil((b - pi) / 2 pi), the number of
    times 2 pi must be taken off to bring it into (-pi, pi]; a passage is a
    change of sheet.
    """
    sheets = np.ceil((np.asarray(branches) - np.pi) / (2.0 * np.pi))
    jumps = np.diff(sheets, axis=0).astype(int)
    return np.maximum(jumps, 0).sum(axis=1), np.maximum(-jumps, 0).sum(axis=1)


def svd_rank(m: np.ndarray, rel_threshold: float = 1e-8) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rel_threshold * sv[0]))


def shooting_solution(potential, lam: float, x0: float, x1: float, n_eval: int = 4001):
    """Left-decaying solution of -u'' + V u = lam u on [x0, x1].

    Starts from the exact far-field decay u = exp(kappa x) with
    kappa = sqrt(V(x0) - lam) and integrates with adaptive RK45 at tight
    tolerance.  Requires V(x0) > lam (hyperbolic left far field).
    """
    v0 = potential(x0)
    if v0 <= lam:
        raise ValueError("left far field not hyperbolic for this lambda")
    kappa = np.sqrt(v0 - lam)

    def rhs(x, y):
        return [y[1], (potential(x) - lam) * y[0]]

    xs = np.linspace(x0, x1, n_eval)
    sol = solve_ivp(rhs, (x0, x1), [1.0, kappa], t_eval=xs,
                    rtol=1e-10, atol=1e-12, method="RK45", max_step=0.05)
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    return xs, sol.y[0], sol.y[1]


def shooting_node_count(potential, lam: float, x0: float = -20.0, x1: float = 20.0) -> int:
    """Number of zeros of the left-decaying solution on (x0, x1].

    By oscillation theory this equals the number of eigenvalues below lam
    (for lam below the essential spectrum).
    """
    xs, u, _ = shooting_solution(potential, lam, x0, x1)
    signs = np.sign(u)
    # treat exact zeros (measure zero) as one sign change
    signs[signs == 0] = 1
    return int(np.sum(signs[1:] != signs[:-1]))


def shooting_eigenvalue(potential, lam_lo: float, lam_hi: float,
                        tol: float = 1e-6, x0: float = -20.0, x1: float = 20.0) -> float:
    """Locate one eigenvalue by bisection on the node count."""
    c_lo = shooting_node_count(potential, lam_lo, x0, x1)
    c_hi = shooting_node_count(potential, lam_hi, x0, x1)
    if c_lo == c_hi:
        raise ValueError(f"no node-count change in [{lam_lo}, {lam_hi}]")
    lo, hi = lam_lo, lam_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if shooting_node_count(potential, mid, x0, x1) == c_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unstable_chart_fixed_point(a_full: np.ndarray) -> np.ndarray:
    """Fixed point s0 of the algebraic Riccati equation c + d s - s(a + b s) = 0
    from the unstable invariant subspace of the full 2n x 2n matrix.

    Independent construction: plain numpy eig, realification, no QR gauge.
    """
    n = a_full.shape[0] // 2
    w, v = np.linalg.eig(a_full)
    idx = [i for i in range(2 * n) if w[i].real > 0]
    assert len(idx) == n, "matrix not hyperbolic with n-dimensional unstable space"
    cols = []
    used = set()
    for i in idx:
        if i in used:
            continue
        used.add(i)
        if abs(w[i].imag) < 1e-12:
            cols.append(v[:, i].real)
        else:
            cols.append(v[:, i].real)
            cols.append(v[:, i].imag)
            for j in idx:
                if j not in used and abs(w[j] - np.conj(w[i])) < 1e-9:
                    used.add(j)
                    break
    basis = np.column_stack(cols)[:, :n]
    q, p = basis[:n], basis[n:]
    s0 = p @ np.linalg.inv(q)
    return 0.5 * (s0 + s0.T)


def poschl_teller_eigenvalues(m: int) -> tuple[float, ...]:
    """Closed-form bound states of V = -m(m+1) sech^2 x: {-j^2 : j = 1..m}."""
    return tuple(-float(j * j) for j in range(m, 0, -1))


def poschl_teller_potential(m: int):
    def potential(x: float) -> float:
        return -m * (m + 1) / np.cosh(np.clip(x, -700, 700)) ** 2
    return potential
