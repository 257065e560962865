"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vtseval.analysis import sample_summary_pairs, spearman
from vtseval.cli import main
from vtseval.corpus import load_annotations, load_features, load_ground_truths
from vtseval.evaluator import length_adjust, score_summary
from vtseval.porter import stem
from vtseval.rouge import SU, UnitTable, rouge_su
from vtseval.summarize import (
    greedy_bow,
    lloyd_cluster,
    mmr_keyframes,
    sentence_dp,
    uniform_sample,
)
from vtseval.visual import chi_square

import oracles
from test_unit_table import decoded_row

DATA = Path(__file__).parent / "data"


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")


def run_criterion(number, description):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            _report(number, description, exc_type is None)
            return False

    return _Ctx()


def random_text(rng, max_sentences=6, max_tokens=6):
    return [
        " ".join(rng.choices(oracles.SAFE_VOCAB, k=rng.randint(1, max_tokens)))
        for _ in range(rng.randint(0, max_sentences))
    ]


def test_criterion_1_rouge_su_oracle_equivalence():
    with run_criterion(1, "score matches naive enumerator on 500 random pairs, < 5 s"):
        rng = random.Random(1001)
        start = time.perf_counter()
        for _ in range(500):
            cand = random_text(rng)
            ref = random_text(rng)
            got = rouge_su(cand, ref)
            p, r, f = oracles.naive_rouge_su(cand, ref)
            assert abs(got.precision - p) < 1e-12
            assert abs(got.recall - r) < 1e-12
            assert abs(got.f_measure - f) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_worked_example():
    with run_criterion(2, "worked skip-bigram example and F = 2/3 pair"):
        units = decoded_row(UnitTable(), SU, "I walked my dog at the park.")
        assert Counter(u for u in units if isinstance(u, tuple)) == {
            ("walk", "dog"): 1,
            ("walk", "park"): 1,
            ("dog", "park"): 1,
        }
        score = rouge_su(["I walked my dog"], ["I walked my dog at the park."])
        assert score.f_measure == 2 / 3


def test_criterion_3_sentence_dp_equals_exhaustive():
    with run_criterion(3, "ordered-assignment DP equals exhaustive search, 100 instances"):
        rng = random.Random(1003)
        from test_summarize import make_gt, make_video

        for _ in range(100):
            m = rng.randint(1, 12)
            k = rng.randint(1, min(4, m))
            video = make_video(
                [" ".join(rng.choices(oracles.SAFE_VOCAB, k=rng.randint(2, 5))) for _ in range(m)]
            )
            gt = make_gt(
                [(i, r, " ".join(rng.choices(oracles.SAFE_VOCAB, k=rng.randint(2, 5))))
                 for i, r in enumerate(rng.sample(range(1, k + 1), k))]
            )
            sel = sentence_dp(video, gt, k)
            sentences = length_adjust(gt, k)
            sim = [
                [rouge_su([s], [video.subshots[i].annotation]).f_measure for i in range(m)]
                for s in sentences
            ]
            best_score, best_indices = oracles.exhaustive_ordered_assignment(sim)
            assert sel.indices == best_indices
            got = oracles.fold_right_sum(sim[j][sel.indices[j]] for j in range(k))
            assert got == best_score


def test_criterion_4_mmr_per_step_equals_brute_force():
    with run_criterion(4, "marginal-relevance steps equal brute force, 100 instances"):
        rng = random.Random(1004)
        from test_summarize import random_features

        for trial in range(100):
            m = rng.randint(1, 20)
            features = random_features(rng, m, frames_per_subshot=rng.randint(1, 2))
            n = rng.randint(1, min(5, m))
            lam = rng.choice([0.0, 0.5, 1.0])
            keys = mmr_keyframes(features, n, lam)

            flat = [h for frames in features.subshots for h in frames]
            owners = [
                i for i, frames in enumerate(features.subshots) for _ in range(len(frames))
            ]
            dist = [[oracles.chi_square_ref(list(a), list(b)) for b in flat] for a in flat]
            remaining = list(range(len(flat)))
            selected = []
            covered = set()
            for picked in keys:
                want = oracles.mmr_step_argmin(dist, remaining, selected, lam)
                assert picked == want, f"trial {trial}: picked {picked}, oracle {want}"
                selected.append(want)
                remaining.remove(want)
                covered.add(owners[want])
            assert len(covered) == n


def test_criterion_5_spearman_closed_form():
    with run_criterion(5, "rank correlation matches closed form; +/-1 on identity/reversal"):
        rng = random.Random(1005)
        for _ in range(100):
            n = rng.randint(2, 10)
            xs = list(range(1, n + 1))
            ys = xs[:]
            rng.shuffle(ys)
            assert abs(spearman(xs, ys) - oracles.spearman_closed_form(xs, ys)) < 1e-12
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_criterion_6_chi_square_properties_and_lloyd_objective():
    with run_criterion(6, "chi-square properties on 1000 pairs; Lloyd objective monotone"):
        rng = random.Random(1006)
        for _ in range(1000):
            dim = rng.randint(2, 48)
            a = np.array([rng.random() for _ in range(dim)])
            b = np.array([rng.random() for _ in range(dim)])
            a /= a.sum()
            b /= b.sum()
            d = chi_square(a, b)
            assert d == chi_square(b, a)
            assert 0.0 <= d <= 1.0
            assert chi_square(a, a) == 0.0
        from test_summarize import random_features

        for seed in range(20):
            features = random_features(rng, m=6, frames_per_subshot=3, dim=9)
            frames = np.vstack(features.subshots)
            result = lloyd_cluster(frames, 4, seed)
            assert all(
                earlier >= later - 1e-12
                for earlier, later in zip(result.objectives, result.objectives[1:])
            ), f"seed {seed}: objectives increased: {result.objectives}"


def test_criterion_7_determinism(tmp_path):
    with run_criterion(7, "byte-identical reruns of summarize/evaluate; golden pair fixture"):
        ann = str(DATA / "video12.annotations.json")
        gts = str(DATA / "video12.gts.json")
        feats = str(DATA / "video12.features.json")
        for method in ("uniform", "cluster", "mmr", "bow", "dp"):
            out = tmp_path / f"{method}.json"
            args = [
                "summarize", "--method", method, "--annotations", ann,
                "--features", feats, "--ground-truth", gts,
                "--n", "4", "--seed", "0", "--output", str(out),
            ]
            assert main(args) == 0
            first = out.read_bytes()
            assert main(args) == 0
            assert out.read_bytes() == first, f"{method} rerun differed"

        report = tmp_path / "report.json"
        args = [
            "evaluate", "--annotations", ann, "--ground-truth", gts,
            "--summary", str(DATA / "video12.summary_a.json"),
            "--output", str(report),
        ]
        assert main(args) == 0
        first = report.read_bytes()
        assert main(args) == 0
        assert report.read_bytes() == first

        golden = json.loads((DATA / "golden_pairs_seed0.json").read_text())
        pairs = sample_summary_pairs(golden["m"], golden["n"], golden["count"], golden["seed"])
        for (a, b), row in zip(pairs, golden["pairs"]):
            assert list(a.indices) == row["a"]
            assert list(b.indices) == row["b"]


def test_criterion_8_fixture_end_to_end():
    with run_criterion(8, "bow and dp beat uniform on the bundled 12-subshot fixture"):
        video = load_annotations(DATA / "video12.annotations.json")
        gts = load_ground_truths(DATA / "video12.gts.json")
        n = 4
        uniform = uniform_sample(video, n)
        bow = greedy_bow(video, gts[0], n)
        dp = sentence_dp(video, gts[0], n)
        scores = {
            name: score_summary(sel, video, gts).score
            for name, sel in (("uniform", uniform), ("bow", bow), ("dp", dp))
        }
        assert scores["bow"] > scores["uniform"], scores
        assert scores["dp"] > scores["uniform"], scores


def test_criterion_9_porter_reference_sample():
    with run_criterion(9, "stemmer matches the committed 50-word reference sample"):
        lines = [
            line for line in (DATA / "porter_sample.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert len(lines) == 50
        for line in lines:
            word, expected = line.split("\t")
            assert stem(word) == expected, f"{word}: got {stem(word)}, want {expected}"
