"""Reference marcher: the per-substep RK4 integration of d S = S W.

Every RK4 substep is taken on the state itself, one Python-level step at a
time, with no propagator products and no reuse of periodic cells.  Its
coefficient samples come from its own zero-padding interpolation,
zero_pad_upsample, which shares no code with the phase-shift sampler
tzitzeica.grid.trig_upsample.  It is the oracle the propagator-form core in
tzitzeica.lax is checked against, the source of the y-first frame of the
path-dependence check, and the marcher of the psi system whose pairing laws
the tests check.
"""

import numpy as np

from tzitzeica.grid import AXIS_X, AXIS_Y, spectral_gradient
from tzitzeica.lax import frame_coeff_x, frame_coeff_y

from oracles import lax_z_matrix, lax_zbar_matrix, spectral_parameter


def zero_pad_upsample(values, factor, axis):
    """Trigonometric (zero-padding FFT) interpolation of real samples onto a
    ``factor``-times finer grid along ``axis``, factor >= 2; exact for
    band-limited periodic samples."""
    f = np.asarray(values)
    n = f.shape[axis]
    nf = n * factor
    spec = np.moveaxis(np.fft.fft(f, axis=axis), axis, 0)
    out = np.zeros((nf,) + spec.shape[1:], dtype=complex)
    half = n // 2
    out[: half + 1] = spec[: half + 1]
    out[nf - (n - half - 1) :] = spec[half + 1 :]
    if n % 2 == 0:
        # split the Nyquist bin symmetrically to keep the interpolant real
        out[half] *= 0.5
        out[nf - half] = out[half]
    out = np.fft.ifft(out, axis=0) * factor
    return np.moveaxis(out, 0, axis).real


def generator(builder, u, cross, lam):
    """The generator builder writes for samples u and cross, as new (..., 3, 3)
    matrices."""
    return builder(u, cross, lam, np.empty((3, 3) + np.shape(u), dtype=complex))


def rk4_step(state, om0, omh, om1, h):
    k1 = state @ om0
    k2 = (state + 0.5 * h * k1) @ omh
    k3 = (state + 0.5 * h * k2) @ omh
    k4 = (state + h * k3) @ om1
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def march(state, coeffs, builder, lam, h, ncells, m):
    """States at the ncells+1 cell boundaries; coeffs, the builder's inputs
    before lam, hold 2*m*ncells + 1 half-substep samples along axis 0."""
    stored = np.empty((ncells + 1,) + state.shape, dtype=complex)
    stored[0] = state
    om_right = generator(builder, *(a[0] for a in coeffs), lam)
    hs = h / m
    for c in range(ncells):
        for s in range(m):
            p = 2 * (c * m + s)
            omh = generator(builder, *(a[p + 1] for a in coeffs), lam)
            om1 = generator(builder, *(a[p + 2] for a in coeffs), lam)
            state = rk4_step(state, om_right, omh, om1, hs)
            om_right = om1
        stored[c + 1] = state
    return stored


def _rows_then_columns(vals, d1, d2, n1, n2, h1, h2, build1, build2, lam, m, e1, e2, u0):
    """vals and its derivatives d1, d2 along the first and second march
    directions are (n2, n1); each march's generator reads vals and the
    derivative across that march."""
    n1_tot, n2_tot = n1 + e1, n2 + e2
    idx1 = np.arange(2 * m * (n1_tot - 1) + 1) % (2 * m * n1)
    row = tuple(zero_pad_upsample(a[0], 2 * m, axis=0)[idx1] for a in (vals, d2))
    first = march(u0, row, build1, lam, h1, n1_tot - 1, m)
    cols_idx = np.arange(n1_tot) % n1
    idx2 = np.arange(2 * m * (n2_tot - 1) + 1) % (2 * m * n2)
    cols = tuple(zero_pad_upsample(a, 2 * m, axis=0)[np.ix_(idx2, cols_idx)] for a in (vals, d1))
    return march(first, cols, build2, lam, h2, n2_tot - 1, m)


def reference_frame(u, theta, substeps, extend=(0, 0), order="xy"):
    """Frames of integrate_frame (u0 = I), shape (ny + ey, nx + ex, 3, 3);
    order="yx" marches the first column in y and then every row in x."""
    g = u.grid
    lam = spectral_parameter(theta)
    m = int(substeps)
    u0 = np.eye(3, dtype=complex)
    ux, uy = spectral_gradient(u.values, g)
    if order == "xy":
        return _rows_then_columns(
            u.values, ux, uy, g.nx, g.ny, g.hx, g.hy, frame_coeff_x, frame_coeff_y,
            lam, m, extend[0], extend[1], u0,
        )
    swapped = _rows_then_columns(
        u.values.T, uy.T, ux.T, g.ny, g.nx, g.hy, g.hx, frame_coeff_y, frame_coeff_x,
        lam, m, extend[1], extend[0], u0,
    )
    return np.swapaxes(swapped, 0, 1)


def reference_stencil(frame, axis, halfwidth=2):
    """Frames of frame_axis_stencil, one substep RK4 step at a time."""
    g = frame.grid
    m = frame.substeps
    u = frame.u
    ux, uy = spectral_gradient(u.values, g)
    if axis == "x":
        ax, n, h, cross, builder = AXIS_X, g.nx, g.hx, uy, frame_coeff_x
    else:
        ax, n, h, cross, builder = AXIS_Y, g.ny, g.hy, ux, frame_coeff_y
    node_idx = np.arange(n) * 2 * m
    fine = [zero_pad_upsample(a, 2 * m, axis=ax) for a in (u.values, cross)]

    def om_at(offset):
        idx = (node_idx + offset) % (2 * m * n)
        c = [a[:, idx] if ax == AXIS_X else a[idx, :] for a in fine]
        return generator(builder, c[0], c[1], frame.lam)

    frames = {0: frame.base.copy()}
    for sign in (+1, -1):
        state = frame.base.copy()
        for k in range(1, halfwidth + 1):
            off = sign * 2 * (k - 1)
            state = rk4_step(state, om_at(off), om_at(off + sign), om_at(off + 2 * sign), sign * h / m)
            frames[sign * k] = state
    return [frames[k] for k in range(-halfwidth, halfwidth + 1)]


def reference_psi(u, theta, psi0, mode="x", substeps=24):
    """psi along the first grid row at the nx + 1 cell boundaries, marching
    d psi = M psi in x one RK4 substep at a time: M = A + B (mode "x", a
    physical x-move) or M = A alone (mode "z", the setting where the
    single-sided pairing derivative identities are exact)."""
    g = u.grid
    m = int(substeps)
    ux, uy = spectral_gradient(u.values, g)
    idx = np.arange(2 * m * g.nx + 1) % (2 * m * g.nx)
    uf, uxf, uyf = (zero_pad_upsample(a[0], 2 * m, axis=0)[idx] for a in (u.values, ux, uy))
    # the generator at every half-substep sample at once
    lam = spectral_parameter(theta)
    gen = lax_z_matrix(uf, 0.5 * (uxf - 1j * uyf), lam)
    if mode == "x":
        gen = gen + lax_zbar_matrix(uf, lam)
    psi = np.asarray(psi0, dtype=complex)
    stored = [psi]
    hs = g.hx / m
    for c in range(g.nx):
        for s in range(m):
            p = 2 * (c * m + s)
            m0, mh, m1 = gen[p : p + 3]
            k1 = m0 @ psi
            k2 = mh @ (psi + 0.5 * hs * k1)
            k3 = mh @ (psi + 0.5 * hs * k2)
            k4 = m1 @ (psi + hs * k3)
            psi = psi + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stored.append(psi)
    return np.array(stored)
