"""Library-level timings at m=100 and m=400: the ROADMAP baseline table, from this generator.

    python3 bench/baseline_table.py [--seed N]

Run from the checkout root. Inputs follow the ROADMAP's description (3
references, 2 frames per subshot, 16 bins) but use this benchmark's
generator (Zipf vocabulary of a few thousand words, 4-9 content words per
sentence). Each row is one timing with ``time.perf_counter`` in this
process, so it is a single sample, not a benchmark run.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
from vtseval import analysis, corpus, evaluator, summarize, visual  # noqa: E402
from vtseval.rng import SplitMix64  # noqa: E402


def _inputs(seed: int, m: int, work: Path):
    rng = SplitMix64(seed)
    zipf = gen.Zipf(gen.build_vocabulary(ROOT))
    video = gen.make_video(rng, zipf, m, f"v{m}")
    gen.write_annotations(work / f"v{m}.ann.json", video)
    gen.write_ground_truths(work / f"v{m}.gts.json", video.video_id,
                            gen.make_ground_truths(rng, zipf, video, 3, m // 10))
    gen.write_features(work / f"v{m}.feat.json", video.video_id, gen.make_frames(rng, video, 2))
    return (corpus.load_annotations(work / f"v{m}.ann.json"),
            corpus.load_ground_truths(work / f"v{m}.gts.json"),
            corpus.load_features(work / f"v{m}.feat.json"), rng)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def rows_for(seed: int, m: int, work: Path) -> dict[str, float]:
    video, gts, features, rng = _inputs(seed, m, work)
    n = m // 10
    summaries = [corpus.SummarySelection(video.video_id, tuple(gen.sample_sorted(rng, m, n)))
                 for _ in range(100)]
    pairs = analysis.sample_summary_pairs(m, n, 200, seed, video_id=video.video_id)
    gt_sel = corpus.SummarySelection(video.video_id, tuple(s.temporal_pos for s in gts[0].sentences))
    return {
        "`score_summary` x100 (n=m/10)": _timed(
            lambda: [evaluator.score_summary(s, video, gts) for s in summaries]),
        "`judge_summary_pair` x200": _timed(
            lambda: [analysis.judge_summary_pair(a, b, video, gts) for a, b in pairs]),
        "`sentence_dp` (n=m/10)": _timed(lambda: summarize.sentence_dp(video, gts[0], n)),
        "`histogram_cluster`": _timed(lambda: summarize.histogram_cluster(features, n, seed)),
        "`pixel_summary_distance` x20": _timed(
            lambda: [visual.pixel_summary_distance(s, gt_sel, features) for s in summaries[:20]]),
    }


def triples(seed: int, m: int, work: Path) -> float:
    video, _, features, _ = _inputs(seed, m, work)

    def run():
        for ref in range(m):
            for x in range(m):
                for y in range(x + 1, m):
                    if ref in (x, y):
                        continue
                    vset = analysis.judge_subshot_pair(x, y, ref, video, "rouge-su")
                    pb = analysis.judge_subshot_pair(x, y, ref, video, "pixel", features=features)
                    analysis.classify_case(vset, pb)

    return _timed(run)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = ROOT / ".bench_out" / "baseline-table"
    work.mkdir(parents=True, exist_ok=True)
    small, large = rows_for(args.seed, 100, work), rows_for(args.seed, 400, work)
    print("| workload | m=100 | m=400 |\n|---|---|---|")
    for name in small:
        print(f"| {name} | {small[name]:.2f} s | {large[name]:.2f} s |")
    m = 40
    print(f"| triples, text + pixel, m={m} ({m * (m - 1) * (m - 2) // 2:,} triples) "
          f"| {triples(args.seed, m, work):.1f} s | - |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
