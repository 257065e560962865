#!/usr/bin/env python3
"""Record tests/data/golden_frames_seed0.json: frame-summarizer outputs, pinned.

The inputs are SplitMix64-seeded histogram features: m=60 subshots with
2 frames each and 4 bins per channel. One bin is empty in every frame,
other bins are emptied at random, and some frames are exact copies of
earlier ones, so the chi-square matrices hold zero-denominator bins and
exact ties. The file records, for each feature seed:

- ``histogram_cluster`` indices and ``lloyd_cluster`` assignments and
  objectives (as ``repr`` floats) for each (n, clustering seed);
- ``mmr_keyframes`` orders for each (n, lambda).

tests/test_golden_frames.py rebuilds the inputs with ``build_features``
and compares every value exactly.

Run from the repository root:  PYTHONPATH=src python tools/make_golden_frames.py
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from vtseval import corpus, summarize
from vtseval.rng import SplitMix64

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_frames_seed0.json"

M = 60
FRAMES_PER_SUBSHOT = 2
BINS = 4
ALWAYS_EMPTY_BIN = 5
FEATURE_SEEDS = (0, 1)
CLUSTER_NS = (5, 10, 20)
CLUSTER_SEEDS = (0, 1, 2)
MMR_NS = (5, 10, 20)
MMR_LAMBDAS = (0.0, 0.3, 0.5, 1.0)


def build_features(seed: int) -> corpus.SubshotFeatures:
    """Integer bin counts, jointly normalized; every 7th frame copies an earlier one."""
    rng = SplitMix64(seed)
    frames: list[np.ndarray] = []
    for k in range(M * FRAMES_PER_SUBSHOT):
        if k % 7 == 6:
            frames.append(frames[rng.next_below(k)].copy())
            continue
        counts = [0 if rng.next_below(4) == 0 else rng.next_below(20) for _ in range(3 * BINS)]
        counts[ALWAYS_EMPTY_BIN] = 0
        if sum(counts) == 0:
            counts[0] = 1
        raw = np.array(counts, dtype=np.float64)
        frames.append(raw / raw.sum())
    subshots = tuple(
        np.vstack(frames[s * FRAMES_PER_SUBSHOT : (s + 1) * FRAMES_PER_SUBSHOT]) for s in range(M)
    )
    return corpus.SubshotFeatures(video_id=f"golden{seed}", bins_per_channel=BINS, subshots=subshots)


def record(seed: int) -> dict:
    features = build_features(seed)
    hists = features.frames
    cluster = []
    for n in CLUSTER_NS:
        for cseed in CLUSTER_SEEDS:
            result = summarize.lloyd_cluster(hists, n, cseed)
            cluster.append(
                {
                    "n": n,
                    "seed": cseed,
                    "indices": list(summarize.histogram_cluster(features, n, cseed).indices),
                    "assignments": result.assignments,
                    "objectives": [repr(float(v)) for v in result.objectives],
                }
            )
    mmr = []
    for n in MMR_NS:
        for lam in MMR_LAMBDAS:
            order = summarize.mmr_keyframes(features, n, lam)
            mmr.append({"n": n, "lambda": lam, "order": [int(k) for k in order]})
    return {"feature_seed": seed, "cluster": cluster, "mmr": mmr}


def main() -> None:
    corpus.write_canonical(OUT, {"cases": [record(seed) for seed in FEATURE_SEEDS]})
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
