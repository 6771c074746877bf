"""Rejection sampling from a clamped-renormalized signed target.

The debiased posterior can carry small negative entries; those are clamped
to zero and the rest renormalized before sampling. The removed mass is kept
as a diagnostic since it is itself of the order of the bias.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import _workspace
from .bayes import _choice_cuts, _choice_labels
from .errors import CapExceededError, IterationCapError, SupportError
from .resampling import _SEED_MAX
from .simplex import ProbVector, _checked_int, _checked_vector

_PIECE = 2**16  # most proposals of a block that the sampler holds at once
# Most proposals, ratio bound times draws, that one call may expect to use: a
# near-degenerate proposal can push the bound past 1e60, and the sampler
# would draw for as long as the bound says.
PROPOSAL_CAP = 2**22


@dataclass(frozen=True)
class RejectionSpec:
    """Frozen sampling plan: proposal, clamped target, and the ratio bound.

    It checks what the sampler relies on, each a ValueError: the proposal
    keeps ProbVector's rule, the ratio is a finite 1-d vector with one entry
    per proposal atom (both kept as read-only copies), and the bound is a
    number >= 0. The cut points of rng.choice(m, p=proposal) are kept too.
    """

    proposal: np.ndarray
    target: np.ndarray
    ratio: np.ndarray  # target/proposal, 0 where the proposal has no mass
    bound: float  # max of ratio; acceptance threshold scale M
    clamped_mass: float  # negative mass removed from the raw target

    def __post_init__(self):
        p = ProbVector(self.proposal).probs
        ratio = _checked_vector(self.ratio, "ratio")
        if ratio.shape != p.shape:
            raise ValueError(f"ratio has shape {ratio.shape}, not one entry per proposal atom")
        if not (isinstance(self.bound, Real) and self.bound >= 0):
            raise ValueError(f"ratio bound must be a number >= 0, got {self.bound!r}")
        object.__setattr__(self, "proposal", p)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "_cuts", _choice_cuts(p))


def make_rejection_spec(proposal, target) -> RejectionSpec:
    """Clamp the signed target at zero, renormalize, and bound the ratio.

    ``target`` is a signed measure: a nonempty 1-d finite vector whose
    entries sum to 1 (tol 1e-10) and may be negative. The bound is computed
    exactly from the distributions (0/0 counts as 0), so the acceptance
    rate is the best achievable, 1/bound.
    """
    prop = ProbVector(proposal).probs
    raw = _checked_vector(target, "target")
    total = float(raw.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"signed entries sum to {total!r}, not 1")
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
    # A subnormal proposal entry can overflow the ratio; the spec rejects it.
    with np.errstate(over="ignore"):
        ratio = np.divide(tgt, prop, out=np.zeros_like(tgt), where=prop > 0)
    tgt.flags.writeable = False
    return RejectionSpec(
        proposal=prop,
        target=tgt,
        ratio=ratio,
        bound=float(ratio.max()),
        clamped_mass=clamped_mass,
    )


def _walk_block(rng, block: int, spec: RejectionSpec, dest: np.ndarray) -> tuple[int, int]:
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
            _choice_labels(pu, spec._cuts, pl, pm)
            accept.random(out=pu)
            pu *= spec.bound
            # Labels are counts of cut points, so "clip" changes none of them.
            np.less(pu, spec.ratio.take(pl, out=pg, mode="clip"), out=pm)
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
    size = _checked_int(size, "size", 1)
    seed = _checked_int(seed, "seed", 0, _SEED_MAX)
    if attempt_cap is not None:
        attempt_cap = _checked_int(attempt_cap, "attempt_cap", 1)
    if spec.bound * size > PROPOSAL_CAP:
        raise CapExceededError(
            f"{size} draws at ratio bound {spec.bound:.6g} need about "
            f"{spec.bound * size:.6g} proposals, over the cap of {PROPOSAL_CAP}"
        )
    if attempt_cap is None:
        attempt_cap = int(10 * spec.bound * size)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    out = np.empty(size, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < size:
        block = min(
            max(128, int(2 * (size - filled) * spec.bound)),
            max(1, attempt_cap - attempts),
        )
        accepted, used = _walk_block(rng, block, spec, out[filled:])
        filled += accepted
        attempts += used
        if filled < size and attempts >= attempt_cap:
            raise IterationCapError(
                f"{attempts} proposal draws produced only {filled}/{size} accepts"
            )
    return out, attempts
