"""Hot inner loops of the Metropolis-Hastings sweep.

The accept/reject recursion is inherently sequential, so it is the one place
in the package where per-step Python overhead dominates. Two interchangeable
implementations are provided for each sweep:

* a numba ``@njit`` version with explicit scalar loops (default when numba
  imports), and
* a pure-numpy version using per-step vector operations.

Selection: the ``LAPLACE_AUDIT_BACKEND`` environment variable (``numba`` or
``numpy``) sets the default; call sites may also pass ``backend=`` explicitly.
Both backends consume identical random streams; chain trajectories can differ
only through floating-point summation order and the last bits of each
log(1 + exp(-t)) term. No script compares the two backends directly: the
traced run of ``benchmarks/run.py`` (``--trace 1``) reports the sweep time per
step of the backend the environment selects, so one traced run per value of
``LAPLACE_AUDIT_BACKEND`` compares their throughput.

All heavy proposal algebra (Gaussian jumps shaped by the fit, data-matrix
projections) is precomputed in blocks outside the kernels with BLAS, so the
kernels only do O(n + d) work per step.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .models import _neg_log_expit

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAVE_NUMBA = False

ENV_FLAG = "LAPLACE_AUDIT_BACKEND"


def default_backend() -> str:
    """Backend implied by the environment (``numba`` when available)."""
    choice = os.environ.get(ENV_FLAG, "").strip().lower()
    if choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice not in ("numba", "numpy"):
        raise ValueError(f"{ENV_FLAG} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not HAVE_NUMBA:
        raise RuntimeError(f"{ENV_FLAG}=numba but numba is not importable")
    return choice


def resolve_backend(backend: str | None) -> str:
    if backend is None:
        return default_backend()
    if backend not in ("numba", "numpy"):
        raise ValueError(f"backend must be 'numba' or 'numpy', got {backend!r}")
    if backend == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    return backend


# --------------------------------------------------------------------------
# logistic-posterior sweep
#
# State: theta (d,), margins t = signed_x @ theta (n,), phi_cur.
# Block inputs: jumps (B, d), jump_proj = jumps @ signed_x.T (B, n),
# log_u (B,) log-uniforms, keep_steps sorted in-block indices to record.


def _logistic_sweep_loops(
    theta, t, phi_cur, jumps, jump_proj, log_u, half_inv_prior_var, keep_steps, out, out_start
):
    d = theta.shape[0]
    n = t.shape[0]
    accepted = 0
    ki = 0
    for b in range(jumps.shape[0]):
        quad = 0.0
        for j in range(d):
            c = theta[j] + jumps[b, j]
            quad += c * c
        phi_prop = half_inv_prior_var * quad
        for i in range(n):
            u = -(t[i] + jump_proj[b, i])
            if u > 0.0:
                phi_prop += u + math.log1p(math.exp(-u))
            else:
                phi_prop += math.log1p(math.exp(u))
        if log_u[b] < phi_cur - phi_prop:
            for j in range(d):
                theta[j] += jumps[b, j]
            for i in range(n):
                t[i] += jump_proj[b, i]
            phi_cur = phi_prop
            accepted += 1
        if ki < keep_steps.shape[0] and keep_steps[ki] == b:
            for j in range(d):
                out[out_start + ki, j] = theta[j]
            ki += 1
    return phi_cur, accepted


def _logistic_sweep_numpy(
    theta, t, phi_cur, jumps, jump_proj, log_u, half_inv_prior_var, keep_steps, out, out_start
):
    accepted = 0
    ki = 0
    n_keep = keep_steps.shape[0]
    t_prop = np.empty_like(t)
    work = np.empty_like(t)
    for b in range(jumps.shape[0]):
        theta_prop = theta + jumps[b]
        np.add(t, jump_proj[b], out=t_prop)
        phi_prop = half_inv_prior_var * float(theta_prop @ theta_prop) + float(
            _neg_log_expit(t_prop, out=work).sum()
        )
        if log_u[b] < phi_cur - phi_prop:
            theta[:] = theta_prop
            t[:] = t_prop
            phi_cur = phi_prop
            accepted += 1
        if ki < n_keep and keep_steps[ki] == b:
            out[out_start + ki] = theta
            ki += 1
    return phi_cur, accepted


# --------------------------------------------------------------------------
# Gaussian-target sweep
#
# State: centered position c = theta - mean (d,), pulled q = precision @ c,
# phi_cur = 0.5 * c' P c. Block inputs additionally carry
# jump_prec = jumps @ precision and jump_quad[b] = 0.5 * jumps[b] . jump_prec[b].


def _gaussian_sweep_loops(
    c, q, phi_cur, jumps, jump_prec, jump_quad, log_u, mean, keep_steps, out, out_start
):
    d = c.shape[0]
    accepted = 0
    ki = 0
    for b in range(jumps.shape[0]):
        cross = 0.0
        for j in range(d):
            cross += jumps[b, j] * q[j]
        phi_prop = phi_cur + cross + jump_quad[b]
        if log_u[b] < phi_cur - phi_prop:
            for j in range(d):
                c[j] += jumps[b, j]
                q[j] += jump_prec[b, j]
            phi_cur = phi_prop
            accepted += 1
        if ki < keep_steps.shape[0] and keep_steps[ki] == b:
            for j in range(d):
                out[out_start + ki, j] = mean[j] + c[j]
            ki += 1
    return phi_cur, accepted


def _gaussian_sweep_numpy(
    c, q, phi_cur, jumps, jump_prec, jump_quad, log_u, mean, keep_steps, out, out_start
):
    accepted = 0
    ki = 0
    n_keep = keep_steps.shape[0]
    for b in range(jumps.shape[0]):
        phi_prop = phi_cur + float(jumps[b] @ q) + jump_quad[b]
        if log_u[b] < phi_cur - phi_prop:
            c += jumps[b]
            q += jump_prec[b]
            phi_cur = phi_prop
            accepted += 1
        if ki < n_keep and keep_steps[ki] == b:
            out[out_start + ki] = mean + c
            ki += 1
    return phi_cur, accepted


if HAVE_NUMBA:
    _logistic_sweep_numba = numba.njit(cache=True, nogil=True)(_logistic_sweep_loops)
    _gaussian_sweep_numba = numba.njit(cache=True, nogil=True)(_gaussian_sweep_loops)


def logistic_sweep(backend: str | None = None):
    """Return the logistic-posterior sweep implementation for a backend."""
    if resolve_backend(backend) == "numba":
        return _logistic_sweep_numba
    return _logistic_sweep_numpy


def gaussian_sweep(backend: str | None = None):
    """Return the Gaussian-target sweep implementation for a backend."""
    if resolve_backend(backend) == "numba":
        return _gaussian_sweep_numba
    return _gaussian_sweep_numpy
