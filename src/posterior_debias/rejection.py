"""Rejection sampling from a clamped-renormalized signed target.

The debiased posterior can carry small negative entries; those are clamped
to zero and the rest renormalized before sampling. The removed mass is kept
as a diagnostic since it is itself of the order of the bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationCapError, SupportError
from .simplex import ProbVector, SignedProbVector


@dataclass(frozen=True)
class RejectionSpec:
    """Frozen sampling plan: proposal, clamped target, and the ratio bound."""

    proposal: np.ndarray
    target: np.ndarray
    ratio: np.ndarray  # target/proposal, 0 where the proposal has no mass
    bound: float  # max of ratio; acceptance threshold scale M
    clamped_mass: float  # negative mass removed from the raw target


def make_rejection_spec(proposal, target) -> RejectionSpec:
    """Clamp the signed target at zero, renormalize, and bound the ratio.

    The bound is computed exactly from the distributions (0/0 counts as 0),
    so the acceptance rate is the best achievable, 1/bound.
    """
    prop = ProbVector(proposal).probs
    raw = SignedProbVector(target).values
    if raw.shape != prop.shape:
        raise ValueError(f"target shape {raw.shape} != proposal shape {prop.shape}")
    clamped = np.maximum(raw, 0.0)
    clamped_mass = float(abs(raw[raw < 0].sum()))  # abs() avoids -0.0 when nothing clamps
    total = clamped.sum()
    if total == 0.0:
        raise ValueError("target has no positive mass after clamping")
    tgt = clamped / total
    if np.any((tgt > 0) & (prop == 0)):
        raise SupportError("clamped target has mass where the proposal is zero")
    ratio = np.divide(tgt, prop, out=np.zeros_like(tgt), where=prop > 0)
    for arr in (tgt, ratio):  # prop is the ProbVector's read-only copy
        arr.flags.writeable = False
    return RejectionSpec(
        proposal=prop,
        target=tgt,
        ratio=ratio,
        bound=float(ratio.max()),
        clamped_mass=clamped_mass,
    )


def rejection_sample_batch(
    spec: RejectionSpec,
    size: int,
    seed: int,
    attempt_cap: int | None = None,
) -> tuple[np.ndarray, int]:
    """Draw ``size`` accepted indices; also report proposal draws consumed.

    Proposals and uniforms are drawn in blocks from a single seeded stream,
    so output is deterministic given (spec, size, seed). The reported count
    runs up to and including the draw that produced the last acceptance.

    Raises IterationCapError once ``attempt_cap`` proposals have been used
    without filling the request. The default cap, ten times the expected
    ``bound * size`` proposals, only stops a sampler that is genuinely stuck.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if attempt_cap is None:
        attempt_cap = int(10 * spec.bound * size)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m = spec.proposal.size
    out = np.empty(size, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < size:
        want = size - filled
        block = min(
            max(128, int(2 * want * spec.bound)),
            max(1, attempt_cap - attempts),
        )
        draws = rng.choice(m, size=block, p=spec.proposal)
        u = rng.uniform(0.0, spec.bound, size=block)
        hits = np.flatnonzero(u < spec.ratio[draws])
        if hits.size >= want:
            out[filled:] = draws[hits[:want]]
            attempts += int(hits[want - 1]) + 1
            filled = size
            break
        out[filled : filled + hits.size] = draws[hits]
        filled += hits.size
        attempts += block
        if attempts >= attempt_cap:
            raise IterationCapError(
                f"{attempts} proposal draws produced only {filled}/{size} accepts"
            )
    return out, attempts
