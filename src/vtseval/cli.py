"""Command-line interface: evaluate, summarize, features, correlate, compare.

Every command validates its inputs before writing anything, writes output
files canonically (temp file + rename), and is deterministic: the same
command line over the same input files produces byte-identical output.
``compare`` builds one ``rouge.UnitTable`` and passes it to every judgment
it makes, so each sentence is compiled once per command.
Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, corpus, evaluator, summarize, visual
from .analysis import PairJudgment, Verdict
from .corpus import CorpusError, SummarySelection
from .rng import SplitMix64
from .rouge import UnitTable
from .textproc import load_stopwords


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _stopwords(args) -> frozenset[str] | None:
    if getattr(args, "stopwords", None):
        return load_stopwords(args.stopwords)
    return None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (splitmix64)")
    parser.add_argument("--stopwords", help="override the bundled stopword list")


# ---------------------------------------------------------------------------
# commands


def _cmd_evaluate(args) -> int:
    video = corpus.load_annotations(args.annotations)
    gts = corpus.load_ground_truths(args.ground_truth)
    summary = corpus.load_summary(args.summary, video)
    report = evaluator.score_summary(
        summary,
        video,
        gts,
        metric=args.metric,
        stopwords=_stopwords(args),
        summary_id=Path(args.summary).stem,
    )
    evaluator.save_report(
        args.output,
        report,
        extra={"tool_version": __version__, "config": _config_dict(args)},
    )
    print(f"{report.summary_id}: score {report.score:.6f} (best author {report.best_author})")
    return 0


def _cmd_summarize(args) -> int:
    video = corpus.load_annotations(args.annotations)
    if args.method == "uniform":
        selection = summarize.uniform_sample(video, args.n)
    elif args.method in ("cluster", "mmr"):
        if not args.features:
            raise CorpusError(f"method {args.method} requires --features")
        features = corpus.load_features(args.features)
        corpus.validate_features_for_video(features, video)
        if args.method == "cluster":
            selection = summarize.histogram_cluster(features, args.n, args.seed)
        else:
            selection = summarize.video_mmr(
                features, summarize.MmrParams(lambda_=args.lambda_, n=args.n)
            )
    else:  # bow | dp
        if not args.ground_truth:
            raise CorpusError(f"method {args.method} requires --ground-truth")
        gts = corpus.load_ground_truths(args.ground_truth)
        gt = _pick_ground_truth(gts, args.author)
        stopwords = _stopwords(args)
        if args.method == "bow":
            selection = summarize.greedy_bow(video, gt, args.n, stopwords)
        else:
            selection = summarize.sentence_dp(video, gt, args.n, stopwords)
    corpus.save_summary(args.output, selection)
    print(f"{selection.video_id}: {list(selection.indices)}")
    return 0


def _pick_ground_truth(gts, author: str | None):
    if author is None:
        return gts[0]
    for gt in gts:
        if gt.author_id == author:
            return gt
    raise corpus.CorpusValidationError(f"no ground truth by author {author!r}")


_FRAME_RE = re.compile(r"^frame_(\d+)_(\d+)\.ppm$")


def _cmd_features(args) -> int:
    frames_dir = Path(args.frames_dir)
    if not frames_dir.is_dir():
        raise corpus.CorpusIOError(f"{frames_dir}: not a directory")
    by_subshot: dict[int, list[tuple[int, Path]]] = {}
    for path in frames_dir.iterdir():
        match = _FRAME_RE.match(path.name)
        if match:
            by_subshot.setdefault(int(match.group(1)), []).append((int(match.group(2)), path))
    if not by_subshot:
        raise corpus.CorpusValidationError(f"{frames_dir}: no frame_<subshot>_<k>.ppm files found")
    if sorted(by_subshot) != list(range(len(by_subshot))):
        raise corpus.CorpusValidationError(
            f"{frames_dir}: subshot indices must be contiguous from 0, got {sorted(by_subshot)}"
        )
    subshots = []
    for idx in range(len(by_subshot)):
        hists = [
            visual.compute_histogram(visual.load_ppm(path), args.bins)
            for _, path in sorted(by_subshot[idx])
        ]
        subshots.append(np.vstack(hists))
    features = corpus.SubshotFeatures(
        video_id=args.video_id,
        bins_per_channel=args.bins,
        subshots=tuple(subshots),
    )
    corpus.save_features(args.output, features)
    print(f"{args.video_id}: {len(subshots)} subshots, {sum(f.shape[0] for f in subshots)} frames")
    return 0


def _load_scores(path) -> dict[str, float]:
    data = corpus.read_json(path)
    rows = data.get("scores")
    if not isinstance(rows, list):
        raise corpus.CorpusParseError(f"{path}: missing 'scores' list")
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "item_id" not in row or "score" not in row:
            raise corpus.CorpusParseError(f"{path}: scores[{i}] needs item_id and score")
        score = float(row["score"])
        if not math.isfinite(score):
            raise corpus.CorpusValidationError(f"{path}: scores[{i}].score: must be finite")
        out[str(row["item_id"])] = score
    return out


def _cmd_correlate(args) -> int:
    a = _load_scores(args.scores_a)
    b = _load_scores(args.scores_b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        raise corpus.CorpusValidationError(
            f"score files cover different items (only in a: {only_a}, only in b: {only_b})"
        )
    ids = sorted(a)
    try:
        rho = analysis.spearman([a[i] for i in ids], [b[i] for i in ids])
    except ValueError as exc:
        raise corpus.CorpusValidationError(str(exc)) from exc
    print(f"spearman {rho:.6f} over {len(ids)} items")
    if args.output:
        corpus.write_canonical(
            args.output,
            {
                "spearman": rho,
                "n": len(ids),
                "tool_version": __version__,
                "config": _config_dict(args),
            },
        )
    return 0


def _judgment_dict(j: PairJudgment) -> dict:
    return {
        "verdict": j.verdict.value,
        "first_score": j.first_score,
        "second_score": j.second_score,
    }


def _cmd_compare(args) -> int:
    video = corpus.load_annotations(args.annotations)
    # one table for every judgment, so each sentence is compiled once
    table = UnitTable(_stopwords(args))
    if args.mode == "pairs":
        payload = _compare_pairs(args, video, table)
    else:
        payload = _compare_triples(args, video, table)
    payload["tool_version"] = __version__
    payload["config"] = _config_dict(args)
    corpus.write_canonical(args.output, payload)
    return 0


def _compare_pairs(args, video, table) -> dict:
    if not args.ground_truth:
        raise CorpusError("pairs mode requires --ground-truth")
    gts = corpus.load_ground_truths(args.ground_truth)
    features = corpus.load_features(args.features) if args.features else None
    if features is not None:
        corpus.validate_features_for_video(features, video)
    gt_subshots = (
        corpus.load_summary(args.gt_subshots, video) if args.gt_subshots else None
    )
    with_pixel = features is not None and gt_subshots is not None
    pairs = analysis.sample_summary_pairs(
        len(video), args.n, args.count, args.seed, video_id=video.video_id
    )
    records = []
    counts: dict[str, int] = {}
    cases: dict[str, int] = {}
    for i, (a, b) in enumerate(pairs):
        vset = analysis.judge_summary_pair(a, b, video, gts, args.metric, table=table)
        record = {
            "pair": i,
            "a": list(a.indices),
            "b": list(b.indices),
            "vset": _judgment_dict(vset),
        }
        counts[vset.verdict.value] = counts.get(vset.verdict.value, 0) + 1
        if with_pixel:
            pb = analysis.judge_summary_pair(
                a, b, video, gts, "pixel", features=features, gt_subshots=gt_subshots
            )
            record["pb"] = _judgment_dict(pb)
            case = analysis.classify_case(vset, pb)
            record["case"] = case.value
            cases[case.value] = cases.get(case.value, 0) + 1
        records.append(record)
    payload = {"mode": "pairs", "pairs": records, "verdict_counts": counts}
    if with_pixel:
        payload["case_counts"] = cases
    agreement = _pair_agreement(args, records)
    if agreement is not None:
        payload["agreement"] = agreement
    return payload


def _pair_agreement(args, records) -> dict | None:
    if not args.human:
        return None
    human = corpus.read_json(args.human)
    rows = human.get("judgments")
    if not isinstance(rows, list):
        raise corpus.CorpusParseError(f"{args.human}: missing 'judgments' list")
    verdict_by_pair = {}
    for i, row in enumerate(rows):
        try:
            verdict_by_pair[int(row["pair"])] = Verdict(row["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            raise corpus.CorpusParseError(f"{args.human}: judgments[{i}]: {exc}") from exc
    out = {}
    for key in ("vset", "pb"):
        matched = [
            (r[key]["verdict"], verdict_by_pair[r["pair"]].value)
            for r in records
            if key in r and r["pair"] in verdict_by_pair
        ]
        if matched:
            out[key] = sum(1 for auto, hum in matched if auto == hum) / len(matched)
    return out or None


def _compare_triples(args, video, table) -> dict:
    if not args.features:
        raise CorpusError("triples mode requires --features")
    features = corpus.load_features(args.features)
    corpus.validate_features_for_video(features, video)
    m = len(video)
    records = []
    cases: dict[str, int] = {}
    human = _load_triple_verdicts(args.human) if args.human else None
    vset_hits = pb_hits = judged = 0
    for ref in range(m):
        for x in range(m):
            if x == ref:
                continue
            for y in range(x + 1, m):
                if y == ref:
                    continue
                vset = analysis.judge_subshot_pair(x, y, ref, video, "rouge-su", table=table)
                pb = analysis.judge_subshot_pair(x, y, ref, video, "pixel", features=features)
                case = analysis.classify_case(vset, pb)
                cases[case.value] = cases.get(case.value, 0) + 1
                record = {
                    "ref": ref,
                    "x": x,
                    "y": y,
                    "vset": _judgment_dict(vset),
                    "pb": _judgment_dict(pb),
                    "case": case.value,
                }
                if human is not None and (ref, x, y) in human:
                    verdict = human[(ref, x, y)]
                    judged += 1
                    vset_hits += vset.verdict is verdict
                    pb_hits += pb.verdict is verdict
                records.append(record)
    payload = {"mode": "triples", "triples": records, "case_counts": cases}
    if human is not None:
        if judged == 0:
            raise corpus.CorpusValidationError(f"{args.human}: no judgments match this video")
        payload["agreement"] = {"vset": vset_hits / judged, "pb": pb_hits / judged, "n": judged}
    return payload


def _load_triple_verdicts(path) -> dict[tuple[int, int, int], Verdict]:
    data = corpus.read_json(path)
    rows = data.get("judgments")
    if not isinstance(rows, list):
        raise corpus.CorpusParseError(f"{path}: missing 'judgments' list")
    out = {}
    for i, row in enumerate(rows):
        try:
            out[(int(row["ref"]), int(row["x"]), int(row["y"]))] = Verdict(row["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            raise corpus.CorpusParseError(f"{path}: judgments[{i}]: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vtseval", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vtseval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("evaluate", help="score a summary against ground truths")
    p.add_argument("--annotations", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--metric", choices=list(evaluator.METRICS), default="rouge-su")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("summarize", help="produce a baseline summary")
    p.add_argument("--method", choices=["uniform", "cluster", "mmr", "bow", "dp"], required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--features")
    p.add_argument("--ground-truth")
    p.add_argument("--author", help="ground-truth author for bow/dp (default: first)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.5)
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("features", help="build a histogram feature file from PPM frames")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--video-id", required=True)
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("correlate", help="rank correlation of two score files")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--output")
    _add_common(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("compare", help="pairwise judgments over sampled pairs or all triples")
    p.add_argument("--mode", choices=["pairs", "triples"], required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--ground-truth")
    p.add_argument("--features")
    p.add_argument("--gt-subshots", help="summary file marking ground-truth subshots (pairs mode)")
    p.add_argument("--metric", choices=list(evaluator.METRICS), default="rouge-su")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--human", help="human judgment file for agreement rates")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
