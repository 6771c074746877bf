"""A private free list of flat work buffers for the Monte Carlo kernels.

The chain stage generator (for the batched outer loop and the single-chain
functions alike) and its resample index blocks, the mixture sampler and the
plug-in write their large intermediates into buffers checked out here, so in steady state they
allocate no large array of their own and the process takes no page faults
for them. Every kept buffer is the same: _CHUNK_ELEMENTS float64 entries,
one outer_mc_batched chunk. A caller that needs fewer entries, integer
labels or a boolean mask gets a view of one (``checkout(size, np.intp)``),
so any kept buffer serves any request.

A checked-out buffer belongs to its caller alone until it is released, so
nested callers (a functional that itself runs a kernel) and concurrent
threads each get their own. Released buffers are kept most recent last, at
most _MAX_KEPT of them (_PER_CPU per CPU); anything beyond is freed.
Requests under _SMALL elements or over one buffer's bytes bypass the list.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# float64 entries per kept buffer (2 MB), and data points per chunk of
# outer_mc_batched (resampling._batch_rows). Changing it moves the chunk
# layout, and with it every batched stream and the rows of mixture-mc:
# bump resampling._BATCH_SCHEME, which MC_RNG_SCHEME records.
_CHUNK_ELEMENTS = 2**18
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
    until it is passed to release. It is a view of the most recently
    released kept buffer, or of a new one when none is kept."""
    if elements < _SMALL or elements * np.dtype(dtype).itemsize > 8 * _CHUNK_ELEMENTS:
        return np.empty(elements, dtype)
    with _lock:
        buf = _free.pop() if _free else None
    if buf is None:
        buf = np.empty(_CHUNK_ELEMENTS)
    return buf.view(dtype)[:elements]


def release(*views: np.ndarray) -> None:
    """Hand back the arrays that checkout returned (not views of them). Each
    kept buffer goes back on the list if it has room, and is freed
    otherwise; the caller must not touch it again either way. They are kept
    last first, so checking out the same requests again returns them in the
    same order."""
    for view in reversed(views):
        buf = view.base  # None for a plain allocation, which owns its data
        if buf is not None and buf.size == _CHUNK_ELEMENTS:
            with _lock:
                if len(_free) < _MAX_KEPT:
                    _free.append(buf)
