"""One workload run in a fresh process: set-up, then whole rounds of CLI commands.

Usage: worker.py PLAN RESULT --seconds S [--trace 0|1 --spans FILE] [--setup-only]

Run from the checkout root with ``src`` on PYTHONPATH. Set-up is the
import of vtseval plus the first loading and validation of every input
through ``corpus.load_*``. Then rounds run back to back, each command
starting when the previous one ends (a closed loop with one client),
until ``S`` seconds of rounds have passed; the last round is always
finished. Every command goes through ``vtseval.cli.main`` in this one
process, so module-level state persists from one command to the next.
A command that raises or returns non-zero counts as failed.

Around every command the worker times ``calibrate()``, a fixed piece of
work outside vtseval, so each command's time can be put at a reference
machine speed; set-up is followed by three calibrations.

With ``--trace 1``, untraced and traced rounds alternate: the traced ones
give the per-layer numbers, and comparing the two gives the tracing overhead.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(plan: dict) -> float:
    """Import the program and load every input once; seconds since process start."""
    from vtseval import cli, corpus  # noqa: F401

    videos = {}
    for load in plan["loads"]:
        kind, path = load[0], load[1]
        if kind == "annotations":
            videos[path] = corpus.load_annotations(path)
        elif kind == "ground_truths":
            corpus.load_ground_truths(path)
        elif kind == "summary":
            corpus.load_summary(path, videos[load[2]])
        elif kind == "features":
            corpus.load_features(path)
        else:
            corpus.read_json(path)
    return time.perf_counter() - _T0


def _write_scores(output: str, reports: list[str]) -> None:
    rows = []
    for path in reports:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        rows.append({"item_id": report["summary_id"], "score": report["score"]})
    with open(output, "w", encoding="utf-8") as fh:
        json.dump({"scores": rows}, fh)


_CAL_WORDS = [f"{stem}{suffix}" for stem in ("walk", "cook", "relat", "happi", "motor")
              for suffix in ("", "s", "ing", "ed", "ational", "ness", "ful", "ly")]


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the program does: the machine's current speed.

    Word suffix tests and slicing, dict counting, small numpy reductions and
    canonical JSON, none of it through vtseval, so a change to the program
    cannot change it.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(8000):
        word = _CAL_WORDS[i % len(_CAL_WORDS)]
        for suffix in ("ational", "ness", "ing", "ed", "s"):
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                word = word[: -len(suffix)]
                break
        counts[word] = counts.get(word, 0) + 1
    a = np.linspace(0.0, 1.0, 48)
    b = a[::-1].copy()
    total = 0.0
    for _ in range(600):
        mask = (a + b) > 0
        total += 0.5 * float(np.sum((a - b)[mask] ** 2 / (a + b)[mask]))
    json.dumps({"counts": counts, "total": total}, sort_keys=True, indent=2)
    return time.perf_counter() - start


def _run_round(steps: list[dict]) -> list[dict]:
    """Run each step once; per command its label, seconds, work and outcome."""
    from vtseval import cli

    out = []
    before = calibrate()
    for step in steps:
        if step["kind"] == "scores":
            _write_scores(step["argv"][0], step["argv"][1:])
            continue
        start = time.perf_counter()
        try:
            ok = cli.main(step["argv"]) == 0
        except SystemExit as exc:  # argparse usage errors
            ok = exc.code == 0
        except Exception as exc:  # a crashing command is a failed operation, not a dead run
            sys.stderr.write(f"{step['label']}: {type(exc).__name__}: {exc}\n")
            ok = False
        elapsed = time.perf_counter() - start
        after = calibrate()
        out.append({"label": step["label"], "s": elapsed, "cal": (before + after) / 2,
                    "work": step["work"], "ok": ok})
        before = after
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    setup_s = _setup(plan)
    # the first call in a fresh process runs cold; the median of three skips it
    result = {"setup_s": setup_s, "setup_cal": statistics.median(calibrate() for _ in range(3)),
              "rounds": []}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer(run_id=f"{plan['workload']}-{plan['seed']}")
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(result["rounds"]) % 2 == 1
            if traced:
                tracer.install()
            try:
                commands = _run_round(plan["steps"])
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.end_round()
            result["rounds"].append({"traced": traced, "commands": commands})
            done = time.perf_counter() - begin >= args.seconds
            if done and (tracer is None or traced):
                break
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(sum(r["traced"] for r in result["rounds"]))
            if args.spans:
                tracer.write_spans(Path(args.spans))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
