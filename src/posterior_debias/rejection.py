"""Rejection sampling from a clamped-renormalized signed target.

The debiased posterior can carry small negative entries; those are clamped
to zero and the rest renormalized before sampling. The removed mass is kept
as a diagnostic since it is itself of the order of the bias.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import isnan

import numpy as np

from . import _workspace
from .bayes import _choice_cuts, _choice_labels
from .errors import CapExceededError, IterationCapError, SupportError
from .resampling import _check_seed
from .simplex import ProbVector, SignedProbVector

_PIECE = 2**16  # most proposals of a block that the sampler holds at once
# Most proposals, ratio bound times draws, that one call may expect to use: a
# near-degenerate proposal can push the bound past 1e60, and the sampler
# would draw for as long as the bound says.
PROPOSAL_CAP = 2**22


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


def _check_count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _proposal_cuts(proposal) -> np.ndarray:
    """The label cut points of rng.choice(m, p=proposal), after the checks
    rng.choice makes on p, each a ValueError: a hand-built RejectionSpec
    has not been through make_rejection_spec."""
    atol = np.sqrt(np.finfo(np.float64).eps)
    if isinstance(proposal, np.ndarray) and np.issubdtype(proposal.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(proposal.dtype).eps))
    p = np.ascontiguousarray(proposal, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("proposal must be 1-dimensional")
    if p.size == 0:
        raise ValueError("proposal must not be empty")
    # rng.choice's sum: Kahan's, left to right, on Python floats.
    first, *rest = p.tolist()
    total, carry = first, 0.0
    for x in rest:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if isnan(total):
        raise ValueError("proposal contains NaN")
    if (p < 0).any():
        raise ValueError("proposal has negative entries")
    if abs(total - 1.0) > atol:
        raise ValueError(f"proposal sums to {total!r}, not 1")
    return _choice_cuts(p)


def _walk_block(rng, block: int, cuts, ratio, bound: float, dest: np.ndarray) -> tuple[int, int]:
    """Draw one block of ``block`` proposals and write its accepts into
    ``dest`` until it is full; return (accepts, proposals used).

    The block's stream is its label uniforms, then its acceptance uniforms
    (uniform(0, bound) is 0.0 + bound * u, which is bound * u bit for bit).
    It is walked in pieces of at most _PIECE proposals in pooled work
    buffers: each piece takes its label uniforms from ``rng`` in order, and
    its acceptance uniforms from a copy of the bit generator advanced past
    the labels. A block that fills ``dest`` stops where it does; a whole
    block leaves ``rng`` past its acceptance uniforms."""
    accept = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(block))
    step = min(block, _PIECE)
    u = _workspace.checkout(step)
    gathered = _workspace.checkout(step)
    labels = _workspace.checkout(step, np.intp)
    mask = _workspace.checkout(step, bool)
    filled = 0
    try:
        for lo in range(0, block, step):
            k = min(step, block - lo)
            pu, pg, pl, pm = u[:k], gathered[:k], labels[:k], mask[:k]
            rng.random(out=pu)
            _choice_labels(pu, cuts, pl, pm)
            accept.random(out=pu)
            pu *= bound
            # Labels are counts of cut points, so "clip" changes none of them.
            np.less(pu, ratio.take(pl, out=pg, mode="clip"), out=pm)
            hits = np.flatnonzero(pm)
            need = dest.size - filled
            if hits.size >= need:
                pl.take(hits[:need], out=dest[filled:], mode="clip")
                return dest.size, lo + int(hits[need - 1]) + 1
            pl.take(hits, out=dest[filled : filled + hits.size], mode="clip")
            filled += hits.size
    finally:
        _workspace.release(u, gathered, labels, mask)
    rng.bit_generator.advance(block)
    return filled, block


def rejection_sample_batch(
    spec: RejectionSpec,
    size: int,
    seed: int,
    attempt_cap: int | None = None,
) -> tuple[np.ndarray, int]:
    """Draw ``size`` accepted indices; also report proposal draws consumed.

    Proposals and uniforms are drawn in blocks from a single seeded stream,
    so output is deterministic given (spec, size, seed). Each block takes
    the labels rng.choice(m, size=block, p=spec.proposal) would give (from
    the same uniforms, counted against the same cut points), then its
    acceptance uniforms rng.uniform(0, spec.bound, size=block). A block is
    walked in pieces of at most 2^16 proposals, so the sampler's work memory
    is bounded whatever the block size. The reported count runs up to and
    including the draw that produced the last acceptance.

    Raises CapExceededError before any draw when the expected proposals,
    ``bound * size``, exceed PROPOSAL_CAP. Raises IterationCapError once
    ``attempt_cap`` proposals have been used without filling the request.
    The default cap, ten times the expected proposals, only stops a sampler
    that is genuinely stuck.
    ``size`` and ``attempt_cap`` must be integers >= 1 and ``seed`` an
    unsigned 64-bit integer.
    """
    size = _check_count("size", size)
    seed = _check_seed(seed)
    if attempt_cap is not None:
        attempt_cap = _check_count("attempt_cap", attempt_cap)
    # The checks uniform(0, bound) and the ratio lookup made on a hand-built
    # spec, before the first draw.
    if not spec.bound >= 0:
        raise ValueError(f"ratio bound must be >= 0, got {spec.bound!r}")
    if spec.bound * size > PROPOSAL_CAP:
        raise CapExceededError(
            f"{size} draws at ratio bound {spec.bound:.6g} need about "
            f"{spec.bound * size:.6g} proposals, over the cap of {PROPOSAL_CAP}"
        )
    if attempt_cap is None:
        attempt_cap = int(10 * spec.bound * size)
    cuts = _proposal_cuts(spec.proposal)
    ratio = np.asarray(spec.ratio, dtype=float)
    if ratio.shape != (cuts.size + 1,):
        raise ValueError(f"ratio has shape {ratio.shape}, not one entry per proposal atom")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    out = np.empty(size, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < size:
        block = min(
            max(128, int(2 * (size - filled) * spec.bound)),
            max(1, attempt_cap - attempts),
        )
        accepted, used = _walk_block(rng, block, cuts, ratio, spec.bound, out[filled:])
        filled += accepted
        attempts += used
        if filled < size and attempts >= attempt_cap:
            raise IterationCapError(
                f"{attempts} proposal draws produced only {filled}/{size} accepts"
            )
    return out, attempts
