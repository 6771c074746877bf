"""A private free list of flat work buffers for the Monte Carlo kernels.

The chain stage generator (for the batched outer loop and the single-chain
functions alike) and its resample index blocks, the mixture sampler and the
plug-in write their large intermediates into buffers checked out here, so in steady state they
allocate no large array of their own and the process takes no page faults
for them. Every buffer is float64; a caller that needs integer labels or a
boolean mask views one (``checkout(size, np.intp)``), so one list serves all
three.

A checked-out buffer belongs to its caller alone until it is released, so
nested callers (a functional that itself runs a kernel) and concurrent
threads each get their own. Released buffers are kept for reuse only up to
_BUDGET elements each, and at most _MAX_KEPT of them (_PER_CPU per CPU);
anything beyond is freed. Requests under _SMALL elements bypass the list.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_BUDGET = 2**18  # float64 elements per kept buffer: 2 MB, one full outer_mc_batched chunk
# Requests for fewer elements (32 KB or less) are plain allocations: malloc
# serves them from its free lists, and the pool's bookkeeping would cost more
# than it saves on the per-replicate path.
_SMALL = 2**12
# Buffers one batched chunk holds at once: while the sampler runs, the first
# stage and the sampler's labels, mask and gather block; after it, two chain
# stages and either a resample index block or the plug-in's weights and the
# event's mask. Five per CPU, one more than a chunk holds, keep at most 10 MB
# per CPU.
_PER_CPU = 5
_MAX_KEPT = _PER_CPU * (os.cpu_count() or 1)  # read once: the call costs microseconds

_free: list[np.ndarray] = []
_lock = threading.Lock()


def checkout(elements: int, dtype=np.float64) -> np.ndarray:
    """A flat, writable buffer of ``elements`` entries of ``dtype`` (8 bytes
    or fewer per entry), with arbitrary contents, that no other caller holds
    until it is passed to release. It takes the most recently released kept
    buffer that is large enough; when none is, it frees the most recent one
    and allocates."""
    if elements < _SMALL:
        return np.empty(elements, dtype)
    words = -(-elements * np.dtype(dtype).itemsize // 8)
    buf = None
    with _lock:
        for i in range(len(_free) - 1, -1, -1):
            if _free[i].size >= words:
                buf = _free.pop(i)
                break
        else:
            if _free:
                _free.pop()  # too small for this request: make room for a larger one
    if buf is None:
        buf = np.empty(words)
    return buf[:words].view(dtype)[:elements]


def release(*views: np.ndarray) -> None:
    """Hand back the arrays that checkout returned (not views of them). Each
    buffer is kept for reuse if it is within the budget and the list has
    room, and freed otherwise; the caller must not touch it again either
    way. They are kept last first, so checking out the same requests again
    returns them in the same order."""
    for view in reversed(views):
        buf = view.base  # None for a plain allocation, which owns its data
        if buf is not None and buf.size <= _BUDGET:
            with _lock:
                if len(_free) < _MAX_KEPT:
                    _free.append(buf)
