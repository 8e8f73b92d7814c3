"""Reference/optimised pairs for the hot-path kernel regression gate.

Each pair runs the *same logical work* twice — once through the historical
dict-of-float64 reference path (kept inline here; ``repro`` holds layer
state in arenas only) and once through the arena/workspace path — so the
speedup ratio (ref time / opt time) is meaningful on any machine.
``benchmarks/check_regression.py`` times these pairs and compares ratios
against the committed ``benchmarks/BENCH_kernels.json`` baseline;
``bench_micro_kernels.py`` exposes the same pairs to pytest-benchmark for
human inspection.

N is one large conv layer (~ResNet-18); the layered shapes mimic a deep
model so the payload-apply pair sees realistic per-layer loop overhead.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.compression import (
    KernelWorkspace,
    encode_indices,
    encode_mask,
    topk_mask,
    topk_select,
)
from repro.core.arena import LayerArena

__all__ = ["N", "RATIO", "GATED", "make_pairs"]

N = 1_000_000
RATIO = 0.01

#: the kernels the committed baseline must show >= 1.5x speedup on
#: (acceptance: at least MIN_WINS of these)
GATED = ("topk_select", "coo_encode", "payload_apply")
MIN_WINS = 2


def _layered_shapes(total: int = N, layers: int = 48) -> "OrderedDict[str, tuple[int, ...]]":
    """A deep-model-like shape table: many small layers + a few big ones."""
    shapes: "OrderedDict[str, tuple[int, ...]]" = OrderedDict()
    per = total // (2 * layers)
    used = 0
    for i in range(layers - 1):
        size = per if i % 2 == 0 else per // 2
        shapes[f"layer{i:02d}"] = (size,)
        used += size
    shapes["layer_final"] = (total - used,)
    return shapes


def make_pairs() -> "OrderedDict[str, tuple]":
    """name -> (reference_callable, optimised_callable), same work each."""
    rng = np.random.default_rng(0)
    arr = rng.normal(size=N)
    ws = KernelWorkspace()

    pairs: "OrderedDict[str, tuple]" = OrderedDict()

    # --- top-k select: magnitude top-1% of a 1M vector to a SparseTensor.
    # Reference: boolean mask then flatnonzero-based encode (two O(n)
    # passes + fresh allocations).  Optimised: fused argpartition ->
    # sorted-index gather with caller-owned scratch.
    pairs["topk_select"] = (
        lambda: encode_mask(arr, topk_mask(arr, RATIO)),
        lambda: topk_select(arr, RATIO, ws),
    )

    # --- COO encode: selection already made, produce the wire payload.
    # Reference scans the full mask (O(n)); optimised gathers straight
    # from the known sorted indices (O(k)).
    mask = topk_mask(arr, RATIO)
    idx = np.flatnonzero(mask)
    pairs["coo_encode"] = (
        lambda: encode_mask(arr, mask),
        lambda: encode_indices(arr, idx, ws, assume_sorted=True),
    )

    # --- payload apply: server-side M <- M - g for a dense per-layer
    # update.  Reference: the dict path's per-layer Python loop.
    # Optimised: one fused op over the arena's flat buffer.
    shapes = _layered_shapes()
    m_dict = OrderedDict((name, np.zeros(s)) for name, s in shapes.items())
    upd_dict = OrderedDict((name, rng.normal(size=s)) for name, s in shapes.items())
    m_arena = LayerArena(shapes, dtype=np.float32)
    upd_arena = LayerArena.from_layers(upd_dict, dtype=np.float32)

    def apply_dict():
        for name, g in upd_dict.items():
            m_dict[name] -= g

    pairs["payload_apply"] = (
        apply_dict,
        lambda: m_arena.add_payload(upd_arena, scale=-1.0),
    )

    # --- SAMomentum prepare (informative, not gated): full Algorithm 3
    # step.  Reference: the dict-of-float64 strategy's per-layer loop,
    # inlined.  Optimised: the arena strategy at float32.
    from repro.compression import TopKSparsifier
    from repro.core.strategies import SAMomentumStrategy

    sam_shapes = OrderedDict([("w", (N,))])
    sam_sparsifier = TopKSparsifier(RATIO, min_sparse_size=0)
    sam_u = OrderedDict((name, np.zeros(s)) for name, s in sam_shapes.items())
    sam_opt = SAMomentumStrategy(sam_shapes, sam_sparsifier, 0.7, dtype=np.float32)
    grads = OrderedDict([("w", arr)])

    def samomentum_dict(lr=0.1, m=0.7):
        out = OrderedDict()
        for name, g in grads.items():
            u = sam_u[name]
            u *= m
            u += lr * g
            mask = sam_sparsifier.mask(u)
            out[name] = encode_mask(u, mask)
            np.divide(u, m, out=u, where=~mask)
        return out

    pairs["samomentum_prepare"] = (
        samomentum_dict,
        lambda: sam_opt.prepare(grads, 0.1),
    )

    return pairs
