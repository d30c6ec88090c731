"""The Metropolis-Hastings sweep: independent chains advanced in lock-step.

The accept/reject recursion is sequential along each chain but independent
across chains, so every step scores the proposals of all chains with one
``neg_log_density_many`` call and accepts row-wise with a boolean mask. The
per-call overhead of numpy, which bounds the speed of a per-step Python loop,
is then paid once per step for all chains.
"""

from __future__ import annotations

import numpy as np

# benchmarks/run.py reads these two names to describe its environment
HAVE_NUMBA = False


def default_backend() -> str:
    return "numpy"


def lockstep_sweep(model, theta, phi, jumps, log_u, keep_steps, out, out_phi, out_start):
    """Advance every chain through one block of steps; return per-chain accepts.

    ``theta`` (chains x d) and ``phi`` (chains,) hold the current states and
    are updated in place. ``jumps`` (steps x chains x d) and ``log_u``
    (steps x chains) are the block's proposals and log-uniforms. After each
    in-block step listed in the sorted ``keep_steps`` the states go to
    ``out[:, out_start + i]`` and their phi to ``out_phi[:, out_start + i]``.
    A proposal with non-finite phi is always rejected.
    """
    accepted = np.zeros(theta.shape[0], dtype=np.int64)
    ki = 0
    for b in range(jumps.shape[0]):
        proposal = theta + jumps[b]
        phi_prop = model.neg_log_density_many(proposal)
        move = log_u[b] < phi - phi_prop
        np.copyto(theta, proposal, where=move[:, None])
        np.copyto(phi, phi_prop, where=move)
        accepted += move
        if ki < keep_steps.shape[0] and keep_steps[ki] == b:
            out[:, out_start + ki] = theta
            out_phi[:, out_start + ki] = phi
            ki += 1
    return accepted
