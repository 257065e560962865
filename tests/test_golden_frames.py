"""Frame summarizers against tests/data/golden_frames_seed0.json, exactly.

The file pins histogram_cluster indices, lloyd_cluster assignments and
objectives, and mmr_keyframes orders on seeded inputs with empty bins and
duplicated frames. tools/make_golden_frames.py builds the inputs and
wrote the file; regenerate it only for a change that means to alter
these outputs.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from vtseval import summarize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import make_golden_frames as golden  # noqa: E402

CASES = json.loads((ROOT / "tests" / "data" / "golden_frames_seed0.json").read_text())["cases"]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"features{c['feature_seed']}")
def case(request):
    features = golden.build_features(request.param["feature_seed"])
    return request.param, features, np.vstack(features.subshots)


def test_inputs_hold_empty_bins_and_duplicate_frames(case):
    _, _, hists = case
    assert np.all(hists[:, golden.ALWAYS_EMPTY_BIN] == 0.0)
    assert len(np.unique(hists, axis=0)) < len(hists)


def test_cluster_outputs_match(case):
    pinned, features, hists = case
    for row in pinned["cluster"]:
        result = summarize.lloyd_cluster(hists, row["n"], row["seed"])
        assert result.assignments == row["assignments"], row["n"]
        assert [repr(float(v)) for v in result.objectives] == row["objectives"], row["n"]
        selection = summarize.histogram_cluster(features, row["n"], row["seed"])
        assert list(selection.indices) == row["indices"], row["n"]


def test_mmr_orders_match(case):
    pinned, features, _ = case
    for row in pinned["mmr"]:
        order = summarize.mmr_keyframes(features, row["n"], row["lambda"])
        assert order == row["order"], (row["n"], row["lambda"])
