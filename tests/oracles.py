"""Independent reference computations used to check the package.

Everything here is written from the defining equations with generic
tools (dense scans, bisection, banded Crank-Nicolson, high-precision
arithmetic), deliberately avoiding the package's own algorithms so the
two routes can disagree.
"""

import functools

import numpy as np
import scipy.linalg
from scipy.optimize import brentq


def dispersion(lam_b, sys):
    """Interface determinant as a function of the left frequency.

    Local re-derivation: with a shared decay rate, the right frequency
    is lam_a = sqrt(kappa_b/kappa_a) * lam_b and the flux/continuity
    pair is singular exactly when

        (K_b/sqrt(kappa_b)) sin(lam_b b) cos(lam_a a)
      + (K_a/sqrt(kappa_a)) sin(lam_a a) cos(lam_b b) = 0.
    """
    lb = np.asarray(lam_b, dtype=float)
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    la = np.sqrt(kb / ka) * lb
    return (
        sys.mat_b.K / np.sqrt(kb) * np.sin(lb * sys.b) * np.cos(la * sys.a)
        + sys.mat_a.K / np.sqrt(ka) * np.sin(la * sys.a) * np.cos(lb * sys.b)
    )


def brute_force_roots(sys, count, step=2e-4):
    """First ``count`` positive roots of the dispersion relation.

    Dense sampling plus Brent refinement; slow but has no knowledge of
    root spacing or the scan heuristics under test.
    """
    roots = []
    lo = step
    f_lo = float(dispersion(lo, sys))
    x = lo
    while len(roots) < count:
        x_next = x + step
        f_next = float(dispersion(x_next, sys))
        if f_lo == 0.0:
            roots.append(x)
        elif f_lo * f_next < 0:
            roots.append(brentq(lambda v: float(dispersion(v, sys)), x, x_next,
                                xtol=1e-14, rtol=1e-15))
        x, f_lo = x_next, f_next
        if x > 1e4:
            raise RuntimeError("brute force scan ran away")
    return np.array(roots[:count])


def _mp_dispersion(sys):
    """The dispersion relation in mpmath arithmetic at the caller's precision."""
    import mpmath

    kb = mpmath.mpf(repr(sys.mat_b.kappa))
    ka = mpmath.mpf(repr(sys.mat_a.kappa))
    Kb = mpmath.mpf(repr(sys.mat_b.K))
    Ka = mpmath.mpf(repr(sys.mat_a.K))
    b = mpmath.mpf(repr(sys.b))
    a = mpmath.mpf(repr(sys.a))
    ratio = mpmath.sqrt(kb / ka)

    def f(lb):
        la = ratio * lb
        return (Kb / mpmath.sqrt(kb) * mpmath.sin(lb * b) * mpmath.cos(la * a)
                + Ka / mpmath.sqrt(ka) * mpmath.sin(la * a) * mpmath.cos(lb * b))

    return f


def mp_first_root(sys, lo, hi, digits=50):
    """First dispersion root in [lo, hi] by 50-digit bisection."""
    import mpmath

    with mpmath.workdps(digits):
        root = mpmath.findroot(_mp_dispersion(sys), (mpmath.mpf(repr(lo)), mpmath.mpf(repr(hi))),
                               solver="bisect", tol=mpmath.mpf(10) ** (-digits + 5))
        return float(root)


def sign_change_count(sys, hi, points):
    """Sign changes of the dispersion relation on a uniform grid over (0, hi].

    Each change brackets at least one root, so the count is a lower
    bound on the number of positive roots below hi.  Evaluated in chunks
    to keep memory small.
    """
    xs = np.linspace(0.0, hi, points + 1)[1:]
    count, prev = 0, None
    for chunk in np.array_split(xs, max(1, points // 50_000)):
        sign = np.sign(dispersion(chunk, sys))
        if prev is not None:
            sign = np.concatenate(([prev], sign))
        count += int(np.count_nonzero(sign[:-1] * sign[1:] < 0))
        prev = sign[-1]
    return count


def mp_refine_roots(sys, guesses, digits=30):
    """Each guess refined by secant iteration on the raw dispersion relation."""
    import mpmath

    with mpmath.workdps(digits):
        f = _mp_dispersion(sys)
        out = []
        for g in guesses:
            x0 = mpmath.mpf(repr(float(g)))
            out.append(float(mpmath.findroot(f, (x0, x0 * (1 + mpmath.mpf(2) ** -40)))))
        return out


def dispersion_2d(nu_b, mu, sys):
    """2D interface determinant at transverse wavenumber mu (local form)."""
    nb = np.asarray(nu_b, dtype=float)
    kb, ka = sys.mat_b.kappa, sys.mat_a.kappa
    # below the evanescent threshold the radicand is negative: NaN, no sign change
    with np.errstate(invalid="ignore"):
        na = np.sqrt((kb * nb * nb + (kb - ka) * mu * mu) / ka)
    return (
        sys.mat_b.K * nb * np.sin(nb * sys.b) * np.cos(na * sys.a)
        + sys.mat_a.K * na * np.sin(na * sys.a) * np.cos(nb * sys.b)
    )


def phi_2d(mode, x, y, sys):
    """Plate mode value X_alpha(x) Y_m(y) from its record; x >= 0 takes the right layer.

    Y_m is the cosine orthonormal on [0, c] (the constant sqrt(1/c) at m = 0).
    """
    xs = np.asarray(x, dtype=float)
    left = mode.amp_b * np.cos(mode.nu_b * (xs + sys.b))
    right = mode.amp_a * np.cos(mode.nu_a * (xs - sys.a))
    y_factor = np.sqrt((1.0 if mode.m == 0 else 2.0) / sys.c) * np.cos(mode.m * np.pi * y / sys.c)
    return np.where(xs < 0.0, left, right) * y_factor


def brute_modes_2d(sys, n_eps, step=2e-4):
    """All (m, n) plate modes with decay rate <= n_eps, by double loop.

    Returns tuples (m, n, mu, nu_b, lambda_bar) sorted the same way the
    package sorts: by (lambda_bar, m, n).
    """
    kb = sys.mat_b.kappa
    out = []
    m = 0
    while True:
        mu = m * np.pi / sys.c
        if kb * mu * mu > n_eps * (1 + 1e-12):
            break
        nu_cap = np.sqrt(max(n_eps / kb - mu * mu, 0.0))
        roots = []
        if m == 0:
            roots.append(0.0)
        if nu_cap > 0:
            # from nu_b = 0, where equal diffusivities put a root for every m
            xs = np.arange(0.0, nu_cap + step, step)
            if len(xs) >= 2:
                fs = dispersion_2d(xs, mu, sys)
                sign = np.sign(fs)
                for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                    roots.append(brentq(lambda v: float(dispersion_2d(v, mu, sys)),
                                        xs[i], xs[i + 1], xtol=1e-14, rtol=1e-15))
                for i in np.nonzero(fs == 0.0)[0]:
                    roots.append(float(xs[i]))
        for j, r in enumerate(sorted(set(np.round(roots, 12)))):
            lam = kb * (r * r + mu * mu)
            if lam <= n_eps * (1 + 1e-12):
                out.append((m, j, mu, r, lam))
        m += 1
    out.sort(key=lambda t: (t[4], t[0], t[1]))
    return out


def cn_composite(sys, u0_of_x, tf, h, dt):
    """Crank-Nicolson march of the composite-slab heat equation.

    Finite differences on [-b, a] with the interface at a node and
    insulated outer faces: lumped per-node heat capacity, conservative
    per-cell conductivity, banded solve each step.  Returns the node
    vector and the temperature at tf.
    """
    nb = round(sys.b / h)
    na = round(sys.a / h)
    x = np.concatenate([np.linspace(-sys.b, 0.0, nb + 1), np.linspace(h, sys.a, na)])
    n = len(x)
    rc_b, rc_a = sys.mat_b.rho_c, sys.mat_a.rho_c
    mass = np.empty(n)
    mass[0] = rc_b * h / 2
    mass[1:nb] = rc_b * h
    mass[nb] = (rc_b + rc_a) * h / 2
    mass[nb + 1 : n - 1] = rc_a * h
    mass[-1] = rc_a * h / 2
    kcell = np.empty(n - 1)  # conductivity of the cell between nodes i, i+1
    kcell[:nb] = sys.mat_b.K
    kcell[nb:] = sys.mat_a.K
    lower = kcell / h
    upper = kcell / h
    diag = np.zeros(n)
    diag[:-1] -= kcell / h
    diag[1:] -= kcell / h

    def apply_stiffness(u):
        out = diag * u
        out[:-1] += upper * u[1:]
        out[1:] += lower * u[:-1]
        return out

    u = np.asarray(u0_of_x(x), dtype=float)
    ab = np.zeros((3, n))
    ab[0, 1:] = -dt / 2 * upper
    ab[1, :] = mass - dt / 2 * diag
    ab[2, :-1] = -dt / 2 * lower
    for _ in range(round(tf / dt)):
        rhs = mass * u + dt / 2 * apply_stiffness(u)
        u = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return x, u


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def _gauss_rule(lo, hi, lam_max):
    """Gauss-Legendre nodes and weights on [lo, hi], about 4 nodes per unit of phase."""
    order = max(64, int(np.ceil(4.0 * max(lam_max, 1.0) * (hi - lo))))
    xs, ws = _leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * xs, half * ws


def quadrature_grams(basis, modes=None):
    """Per-slab Gram matrices of the modes and of their derivatives, by quadrature.

    Returns (G_b, G_a, D_b, D_a), unweighted, over the mode indices
    ``modes`` (default: all): G_alpha[i, j] integrates phi_i phi_j over
    slab alpha and D_alpha[i, j] integrates phi_i' phi_j'.  The modes are
    evaluated from their frequencies and amplitudes, one mode at a time,
    on one high-order Gauss rule per slab, sized by the basis' fastest mode.
    """
    s = basis.sys
    picked = [basis.modes[n] for n in (range(len(basis)) if modes is None else modes)]
    out = []
    for lo, hi, shift, lam_of, amp_of in (
        (-s.b, 0.0, s.b, lambda md: md.pair.lambda_b, lambda md: md.amp_b),
        (0.0, s.a, -s.a, lambda md: md.pair.lambda_a, lambda md: md.amp_a),
    ):
        x, w = _gauss_rule(lo, hi, max(lam_of(md) for md in basis.modes))
        vals = np.column_stack([amp_of(md) * np.cos(lam_of(md) * (x + shift)) for md in picked])
        ders = np.column_stack(
            [-amp_of(md) * lam_of(md) * np.sin(lam_of(md) * (x + shift)) for md in picked]
        )
        out.append((vals.T @ (w[:, None] * vals), ders.T @ (w[:, None] * ders)))
    (G_b, D_b), (G_a, D_a) = out
    return G_b, G_a, D_b, D_a


def norms_quadrature(basis, n):
    """(N_n, M_n) recomputed by quadrature, for cross-checking closed forms."""
    s = basis.sys
    G_b, G_a, D_b, D_a = quadrature_grams(basis, [n])
    N = (s.mat_b.K / s.mat_b.kappa) * G_b + (s.mat_a.K / s.mat_a.kappa) * G_a
    M = s.mat_b.K * D_b + s.mat_a.K * D_a
    return float(N[0, 0]), float(M[0, 0])


def gauss_norm_sq(f, lo, hi, order=400):
    """High-order Gauss-Legendre value of the squared L2 norm of f."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    vals = np.asarray(f(mid + half * xs), dtype=float)
    return float(half * np.sum(ws * vals * vals))


def legendre_matched_source(basis, count, g_left):
    """A source pair satisfying the cross-slab moment condition.

    Given a left-slab profile g_left, builds the right-slab profile as a
    degree-(count-1) Legendre polynomial whose first ``count`` moments
    against the right-restricted eigenfunctions equal the left moments,
    then scales both by the volumetric heat capacities.  Restricting a
    single eigenfunction to both slabs does NOT satisfy the condition
    (the two restricted inner products differ by a fixed negative
    ratio), so a compatible pair has to be manufactured like this.
    """
    from numpy.polynomial import legendre
    from twoslab.basis import slab_matrix

    s = basis.sys
    Pb = slab_matrix(basis, basis.quad_x_b, "b", count)
    Pa = slab_matrix(basis, basis.quad_x_a, "a", count)
    v = Pb.T @ (basis.quad_w_b * np.asarray(g_left(basis.quad_x_b), dtype=float))
    xa = basis.quad_x_a
    leg_vals = np.stack(
        [legendre.legval(2 * xa / s.a - 1, np.eye(count)[j]) for j in range(count)],
        axis=1,
    )
    M = Pa.T @ (basis.quad_w_a[:, None] * leg_vals)
    c = np.linalg.solve(M, v)
    rc_b, rc_a = s.mat_b.rho_c, s.mat_a.rho_c

    def f_b(x):
        return rc_b * np.asarray(g_left(np.asarray(x, dtype=float)), dtype=float)

    def f_a(x):
        return rc_a * legendre.legval(2 * np.asarray(x, dtype=float) / s.a - 1, c)

    return f_b, f_a


def cos_matrix_longdouble(nodes, shift, lam, amp):
    """amp_n cos(lam_n (x_j + shift)) in long double at the given double nodes, rows j, columns n.

    The amplitudes, frequencies, shift and nodes are taken exactly as the
    doubles they are; only the arithmetic is extended.
    """
    ld = np.longdouble
    assert np.finfo(ld).eps < 1e-18, "long double is no wider than double on this platform"
    s = np.asarray(nodes, dtype=float).astype(ld) + ld(shift)
    arg = np.multiply.outer(s, np.asarray(lam, dtype=float).astype(ld))
    return np.asarray(amp, dtype=float).astype(ld) * np.cos(arg)


def cos_matrix_bound(nodes, shift, lam, amp):
    """Per-column round-off allowance 8 eps (1 + |lam_n| max_j |x_j + shift|) |amp_n|.

    A double evaluation of amp_n cos(lam_n s_j) errs by a few ulps of amp_n
    in the cosine and the product, and by a few ulps of lam_n s_j in the
    argument; 8 eps covers both with room for the angle-addition terms.
    """
    s_max = float(np.max(np.abs(np.asarray(nodes, dtype=float) + shift)))
    return 8 * np.finfo(float).eps * (1.0 + np.abs(lam) * s_max) * np.abs(amp)


# ---------------------------------------------------------------------------
# Helpers that tests need and no library path runs.  weighted_gram sums the
# package's own closed-form slab Grams, so it is no independent oracle; the
# derivative forms restate closed forms that the library does not carry.


def phi_prime(basis, n, x):
    """Analytic derivative of mode n at x; the x >= 0 branch uses the right slab."""
    md, s = basis.modes[n], basis.sys
    xs = np.asarray(x, dtype=float)
    lb, la = md.pair.lambda_b, md.pair.lambda_a
    left = -md.amp_b * lb * np.sin(lb * (xs + s.b))
    right = -md.amp_a * la * np.sin(la * (xs - s.a))
    out = np.where(xs < 0.0, left, right)
    return float(out) if np.isscalar(x) else out


def weighted_gram(basis, mode_count=None):
    """(K_b/kappa_b) G_b + (K_a/kappa_a) G_a from the package's closed-form slab Grams."""
    from twoslab.basis import slab_grams

    w_b, w_a = basis.sys.weights
    G_b, G_a = slab_grams(basis, mode_count)
    return w_b * G_b + w_a * G_a


def _sin_products(lam, amp, length):
    """amp_m amp_n * integral over [0, length] of sin(l_m s) sin(l_n s) for every pair.

    The product-to-sum identity gives (length/2) [sinc(d) - sinc(t)] with
    d, t = (l_m -+ l_n) length/pi.
    """
    d = np.subtract.outer(lam, lam) * (length / np.pi)
    t = np.add.outer(lam, lam) * (length / np.pi)
    return np.outer(amp, amp) * (0.5 * length) * (np.sinc(d) - np.sinc(t))


def derivative_gram(basis, mode_count=None):
    """K_b D_b + K_a D_a, the K-weighted Gram of the mode derivatives; diagonal M_n."""
    s = basis.sys
    k = slice(len(basis) if mode_count is None else mode_count)
    lb, la = basis.lambda_b[k], basis.lambda_a[k]
    D_b = _sin_products(lb, basis.amp_b[k] * lb, s.b)
    D_a = _sin_products(la, basis.amp_a[k] * la, s.a)
    return s.mat_b.K * D_b + s.mat_a.K * D_a


def consistency_gap(coeffs):
    """Largest |C_bn - C_an| of a CoeffVector; zero for data from one genuine solution."""
    return float(np.max(np.abs(coeffs.c_b - coeffs.c_a))) if len(coeffs) else 0.0
