"""The three workloads: the inputs each generates and the commands of one round.

A round is a fixed list of CLI commands. A run repeats whole rounds, so
every run attempts the same operations in the same proportions whatever
its seed or length. Sizes are chosen so a round takes a few seconds on a
2-core machine and a run fits several rounds.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import gen
from vtseval.rng import SplitMix64

# score-paper: paper-scale video (hours of footage at 5 s per subshot)
PAPER_M = 2000
PAPER_AUTHORS = 4
PAPER_SUMMARY_SIZES = (25, 50, 75, 100, 125, 150, 175, 200)  # up to m/10
PAPER_METRICS = ("rouge-su", "rouge-1", "rouge-2")
PAPER_PAIRS = (6, 100)  # (count, n) of the text-only pair judgments

# agreement: pixel-vs-text study
AGREE_M = 400
AGREE_AUTHORS = 3
AGREE_PAIRS = (2, 40)  # (count, n) of each pair-judgment command
AGREE_PAIR_COMMANDS = 3
# dense triples on several short clips rather than one long one: commands of
# about a second each, so the machine-speed calibration between commands
# keeps up with the machine (see run.py)
TRIPLE_CLIPS = 3
TRIPLE_M = 18
TRIPLE_HUMAN = 150  # human-judged triples in each clip's --human file
FRAMES_PER_SUBSHOT = 2

# baselines: all five summarizers
BASE_M = 400
BASE_AUTHORS = 3
# (n, author index, summarizer seed offset, methods). MMR runs once per
# round: it is the costliest command, and fewer, shorter rounds left too few
# samples per run for a steady median.
BASE_CONFIGS = (
    (20, 0, 1, ("uniform", "cluster", "mmr", "bow", "dp")),
    (10, 1, 2, ("uniform", "cluster", "bow", "dp")),
)

WORKLOADS = ("score-paper", "agreement", "baselines")


@dataclass
class Step:
    """One CLI command of a round (kind "cmd") or benchmark glue (kind "scores")."""

    kind: str
    label: str
    argv: list[str]
    work: int = 0
    """Items the command completes: summaries scored, judgments, frames, summaries made."""


@dataclass
class Plan:
    workload: str
    seed: int
    loads: list[list[str]] = field(default_factory=list)
    """(loader, path[, annotations path]) read once at set-up through corpus.load_*."""
    steps: list[Step] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    """What the correctness checks need to know about the generated inputs."""

    def to_dict(self) -> dict:
        return asdict(self)


def _rel(path: Path, root: Path) -> str:
    return str(path.relative_to(root))


def build(workload: str, seed: int, work: Path, root: Path) -> Plan:
    """Generate the workload's inputs under ``work`` and return its plan."""
    rng = SplitMix64(seed)
    zipf = gen.Zipf(gen.build_vocabulary(root))
    plan = Plan(workload=workload, seed=seed)
    make = {"score-paper": _score_paper, "agreement": _agreement, "baselines": _baselines}[workload]
    make(plan, rng, zipf, work, lambda p: _rel(p, root))
    return plan


def _video_files(rng, zipf, work: Path, rel, m: int, authors: int, name: str):
    video = gen.make_video(rng, zipf, m, name)
    gts = gen.make_ground_truths(rng, zipf, video, authors, m // 10)
    ann, gt = work / f"{name}.annotations.json", work / f"{name}.gts.json"
    gen.write_annotations(ann, video)
    gen.write_ground_truths(gt, name, gts)
    return video, gts, rel(ann), rel(gt)


def _score_paper(plan: Plan, rng, zipf, work: Path, rel) -> None:
    video, gts, ann, gt = _video_files(rng, zipf, work, rel, PAPER_M, PAPER_AUTHORS, "paper")
    plan.loads += [["annotations", ann], ["ground_truths", gt]]
    summaries = []
    for i, n in enumerate(PAPER_SUMMARY_SIZES):
        if i % 2:
            indices = gen.sample_sorted(rng, PAPER_M, n)
        else:
            # near one author's picks: scores spread out instead of clustering
            picks = [s["temporal_pos"] for s in gts[i // 2 % PAPER_AUTHORS]["sentences"]]
            chosen = {min(max(picks[j] + rng.next_below(5) - 2, 0), PAPER_M - 1)
                      for j in gen.sample_sorted(rng, len(picks), n)}
            while len(chosen) < n:
                chosen.add(rng.next_below(PAPER_M))
            indices = sorted(chosen)
        path = work / f"summary{i:02d}.json"
        gen.write_summary(path, "paper", indices)
        summaries.append(rel(path))
        plan.loads.append(["summary", rel(path), ann])

    reports = {}
    for metric in PAPER_METRICS:
        reports[metric] = []
        for s in summaries:
            out = rel(work / f"report_{metric}_{Path(s).stem}.json")
            plan.steps.append(Step("cmd", "evaluate", [
                "evaluate", "--annotations", ann, "--ground-truth", gt, "--summary", s,
                "--metric", metric, "--output", out], work=1))
            reports[metric].append(out)
    count, n = PAPER_PAIRS
    pairs_out = rel(work / "pairs.json")
    plan.steps.append(Step("cmd", "compare_pairs", [
        "compare", "--mode", "pairs", "--annotations", ann, "--ground-truth", gt,
        "--count", str(count), "--n", str(n), "--seed", str(plan.seed), "--output", pairs_out],
        work=count))
    scores_a, scores_b = rel(work / "scores_su.json"), rel(work / "scores_r2.json")
    plan.steps.append(Step("scores", "glue", [scores_a] + reports["rouge-su"]))
    plan.steps.append(Step("scores", "glue", [scores_b] + reports["rouge-2"]))
    corr_out = rel(work / "correlate.json")
    plan.steps.append(Step("cmd", "correlate", [
        "correlate", "--scores-a", scores_a, "--scores-b", scores_b, "--output", corr_out], work=1))
    plan.meta = {
        "annotations": ann, "ground_truths": gt, "summaries": summaries, "reports": reports,
        "pairs": {"output": pairs_out, "count": count, "n": n, "m": PAPER_M},
        "correlate": {"output": corr_out, "a": scores_a, "b": scores_b},
    }


def _agreement(plan: Plan, rng, zipf, work: Path, rel) -> None:
    video, gts, ann, gt = _video_files(rng, zipf, work, rel, AGREE_M, AGREE_AUTHORS, "agree")
    frames = gen.make_frames(rng, video, FRAMES_PER_SUBSHOT)
    feats = work / "agree.features.json"
    gen.write_features(feats, "agree", frames)
    frames_dir = work / "frames"
    n_frames = gen.write_ppm_dir(frames_dir, frames, rng)
    gt_subshots = work / "gt_subshots.json"
    gen.write_summary(gt_subshots, "agree", [s["temporal_pos"] for s in gts[0]["sentences"]])
    plan.loads += [["annotations", ann], ["ground_truths", gt], ["features", rel(feats)],
                   ["summary", rel(gt_subshots), ann]]
    feats_out = rel(work / "ingested.features.json")
    plan.steps.append(Step("cmd", "features", [
        "features", "--frames-dir", rel(frames_dir), "--bins", str(gen.BINS),
        "--video-id", "agree", "--output", feats_out], work=n_frames))

    count, n = AGREE_PAIRS
    pairs = []
    for i in range(AGREE_PAIR_COMMANDS):
        out = rel(work / f"pairs{i}.json")
        plan.steps.append(Step("cmd", "compare_pairs", [
            "compare", "--mode", "pairs", "--annotations", ann, "--ground-truth", gt,
            "--features", rel(feats), "--gt-subshots", rel(gt_subshots), "--count", str(count),
            "--n", str(n), "--seed", str(plan.seed + i), "--output", out], work=2 * count))
        pairs.append({"output": out, "count": count, "n": n, "m": AGREE_M})

    m = TRIPLE_M
    verdicts = ("both_zero", "both_equal", "first_closer", "second_closer")
    triples = []
    for i in range(TRIPLE_CLIPS):
        clip = gen.make_video(rng, zipf, m, f"clip{i}")
        clip_ann, clip_feats = work / f"clip{i}.annotations.json", work / f"clip{i}.features.json"
        gen.write_annotations(clip_ann, clip)
        gen.write_features(clip_feats, clip.video_id, gen.make_frames(rng, clip, FRAMES_PER_SUBSHOT))
        human = work / f"clip{i}.human.json"
        judgments = {}
        while len(judgments) < TRIPLE_HUMAN:
            ref, x, y = (rng.next_below(m) for _ in range(3))
            if len({ref, x, y}) == 3:
                judgments[(ref, min(x, y), max(x, y))] = verdicts[rng.next_below(4)]
        gen.write_json(human, {"judgments": [
            {"ref": r, "x": x, "y": y, "verdict": v} for (r, x, y), v in sorted(judgments.items())]})
        plan.loads += [["annotations", rel(clip_ann)], ["features", rel(clip_feats)],
                       ["json", rel(human)]]
        out = rel(work / f"triples{i}.json")
        plan.steps.append(Step("cmd", "compare_triples", [
            "compare", "--mode", "triples", "--annotations", rel(clip_ann),
            "--features", rel(clip_feats), "--human", rel(human), "--output", out],
            work=m * (m - 1) * (m - 2) // 2))
        triples.append({"output": out, "annotations": rel(clip_ann), "features": rel(clip_feats),
                        "human": rel(human), "m": m})
    plan.meta = {
        "annotations": ann, "ground_truths": gt, "features": rel(feats),
        "gt_subshots": rel(gt_subshots),
        "ingest": {"output": feats_out, "expected": rel(feats)},
        "pairs": pairs, "triples": triples,
    }


def _baselines(plan: Plan, rng, zipf, work: Path, rel) -> None:
    video, gts, ann, gt = _video_files(rng, zipf, work, rel, BASE_M, BASE_AUTHORS, "base")
    feats = work / "base.features.json"
    gen.write_features(feats, "base", gen.make_frames(rng, video, FRAMES_PER_SUBSHOT))
    plan.loads += [["annotations", ann], ["ground_truths", gt], ["features", rel(feats)]]
    outputs = []
    for n, author, offset, methods in BASE_CONFIGS:
        seed = str(plan.seed + offset)
        author_id = gts[author]["author_id"]
        for method in methods:
            out = rel(work / f"summary_{method}_n{n}.json")
            argv = ["summarize", "--method", method, "--annotations", ann, "--n", str(n),
                    "--seed", seed, "--output", out]
            if method in ("cluster", "mmr"):
                argv += ["--features", rel(feats)]
            if method in ("bow", "dp"):
                argv += ["--ground-truth", gt, "--author", author_id]
            plan.steps.append(Step("cmd", f"summarize_{method}", argv, work=1))
            outputs.append({"method": method, "n": n, "author": author, "seed": int(seed),
                            "output": out})
    plan.meta = {"annotations": ann, "ground_truths": gt, "features": rel(feats),
                 "outputs": outputs}
