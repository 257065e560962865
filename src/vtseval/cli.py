"""Command-line interface: evaluate, summarize, features, correlate, compare.

This module is an I/O shell: each command loads its input files (every
file is checked against the annotated video), makes its library call and
writes the result. Nothing is written before the inputs validate, output
files are written canonically (temp file + rename), and the same command
line over the same input files produces byte-identical output. ``compare``
hands the whole comparison to ``analysis.compare_pairs`` or
``analysis.compare_triples``.
Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, analysis, corpus, evaluator, summarize, visual
from .corpus import CorpusError
from .rouge import UnitTable, shared_table
from .textproc import load_stopwords


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _table(args) -> UnitTable:
    """The command's one unit table, under --stopwords or the bundled list.

    It is this thread's ``rouge.shared_table``, as for a library call without
    ``table=``, so one process compiles each sentence once. Each command takes
    it once, before it scores anything; it is replaced there when the stopword
    set changes or it has passed ``rouge.TABLE_ENTRIES``, never inside a command.
    """
    return shared_table(load_stopwords(args.stopwords) if args.stopwords else None)


def _write_report(args: argparse.Namespace, report: dict) -> None:
    """Write report to --output with the tool version and the command line's settings."""
    report = {**report, "tool_version": __version__, "config": vars(args)}
    corpus.write_canonical(args.output, report)


# ---------------------------------------------------------------------------
# commands


def _cmd_evaluate(args) -> int:
    video = corpus.load_annotations(args.annotations)
    gts = corpus.load_ground_truths(args.ground_truth, video)
    summary = corpus.load_summary(args.summary, video)
    report = evaluator.score_summary(
        summary,
        video,
        gts,
        metric=args.metric,
        summary_id=Path(args.summary).stem,
        table=_table(args),
    )
    _write_report(args, report.to_dict())
    print(f"{report.summary_id}: score {report.score:.6f} (best author {report.best_author})")
    return 0


def _cmd_summarize(args) -> int:
    video = corpus.load_annotations(args.annotations)
    if args.method == "uniform":
        selection = summarize.uniform_sample(video, args.n)
    elif args.method in ("cluster", "mmr"):
        if not args.features:
            raise CorpusError(f"method {args.method} requires --features")
        features = corpus.load_features(args.features, video)
        if args.method == "cluster":
            selection = summarize.histogram_cluster(features, args.n, args.seed)
        else:
            selection = summarize.video_mmr(features, args.n, args.lambda_)
    else:  # bow | dp
        if not args.ground_truth:
            raise CorpusError(f"method {args.method} requires --ground-truth")
        gts = corpus.load_ground_truths(args.ground_truth, video)
        gt = _pick_ground_truth(gts, args.author)
        method = summarize.greedy_bow if args.method == "bow" else summarize.sentence_dp
        selection = method(video, gt, args.n, _table(args))
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


_FRAME_RE = re.compile(r"frame_([0-9]+)_([0-9]+)\.ppm")


def _cmd_features(args) -> int:
    visual.check_bins(args.bins)  # before the directory is listed, as compare checks options
    frames_dir = Path(args.frames_dir)
    if not frames_dir.is_dir():
        raise corpus.CorpusIOError(f"{frames_dir}: not a directory")
    # str(frames_dir / name) for a name that listdir returns: one component appended
    prefix = str(frames_dir / "_")[:-1]
    frames: dict[tuple[int, int], str] = {}
    for name in sorted(os.listdir(frames_dir)):  # the order of the sorted Paths of one directory
        match = _FRAME_RE.fullmatch(name)
        if match:
            key = (int(match[1]), int(match[2]))  # frame_0_1 and frame_00_1 name one frame
            if key in frames:
                raise corpus.CorpusValidationError(
                    f"{frames[key]} and {prefix + name} are both frame {key[1]} of subshot {key[0]}")
            frames[key] = prefix + name
    keys = sorted(frames)
    counts = Counter(idx for idx, _ in keys)
    if not counts:
        raise corpus.CorpusValidationError(f"{frames_dir}: no frame_<subshot>_<k>.ppm files found")
    if list(counts) != list(range(len(counts))):
        raise corpus.CorpusValidationError(
            f"{frames_dir}: subshot indices must be contiguous from 0, got {list(counts)}"
        )
    # each frame read, parsed and binned in (subshot, frame) order into its row of one matrix
    matrix = np.empty((len(keys), 3 * args.bins))
    for row, key in enumerate(keys):
        matrix[row] = visual.compute_histogram(visual.load_ppm(frames[key]), args.bins)
    bounds = np.cumsum([0, *counts.values()]).tolist()
    subshots = [matrix[start:stop] for start, stop in zip(bounds, bounds[1:])]
    features = corpus.SubshotFeatures(
        video_id=args.video_id,
        bins_per_channel=args.bins,
        subshots=subshots,
    )
    corpus.save_features(args.output, features)
    print(f"{args.video_id}: {len(subshots)} subshots, {len(keys)} frames")
    return 0


def _cmd_correlate(args) -> int:
    a = corpus.load_scores(args.scores_a)
    b = corpus.load_scores(args.scores_b)
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
        _write_report(args, {"spearman": rho, "n": len(ids)})
    return 0


def _cmd_compare(args) -> int:
    # options that do not fit the mode are refused before any file is read
    if args.mode == "pairs":
        if not args.ground_truth:
            raise CorpusError("pairs mode requires --ground-truth")
        if bool(args.features) != bool(args.gt_subshots):
            missing = "--gt-subshots" if args.features else "--features"
            raise CorpusError(f"pixel judgments in pairs mode also require {missing}")
    else:
        if not args.features:
            raise CorpusError("triples mode requires --features")
        if args.ground_truth or args.gt_subshots:
            option = "--ground-truth" if args.ground_truth else "--gt-subshots"
            raise CorpusError(f"triples mode does not take {option}")
        if args.metric != "rouge-su":
            raise CorpusError(f"triples mode scores with rouge-su, not --metric {args.metric}")
    video = corpus.load_annotations(args.annotations)
    features = corpus.load_features(args.features, video) if args.features else None
    if args.mode == "pairs":
        payload = analysis.compare_pairs(
            video,
            corpus.load_ground_truths(args.ground_truth, video),
            args.n,
            args.count,
            args.seed,
            args.metric,
            features=features,
            gt_subshots=corpus.load_summary(args.gt_subshots, video) if args.gt_subshots else None,
            human=args.human,
            table=_table(args),
        )
    else:
        payload = analysis.compare_triples(
            video, features, human=args.human, table=_table(args)
        )
    _write_report(args, payload)
    return 0


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
    p.add_argument("--stopwords", help="override the bundled stopword list")

    p = sub.add_parser("summarize", help="produce a baseline summary")
    p.add_argument("--method", choices=["uniform", "cluster", "mmr", "bow", "dp"], required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--features")
    p.add_argument("--ground-truth")
    p.add_argument("--author", help="ground-truth author for bow/dp (default: first)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.5)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (splitmix64)")
    p.add_argument("--stopwords", help="override the bundled stopword list")

    p = sub.add_parser("features", help="build a histogram feature file from PPM frames")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--video-id", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("correlate", help="rank correlation of two score files")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--output")

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
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (splitmix64)")
    p.add_argument("--stopwords", help="override the bundled stopword list")

    return parser


# parsing leaves the parser unchanged, so one process builds it once for every main() call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call rather than bound into the cached parser, so a
    # wrapper put on a _cmd_* function after the first call still runs
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except (CorpusError, ValueError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
