"""Span tracing from outside the program: wrappers around vtseval's public functions.

``Tracer.install`` replaces each traced function on every vtseval module
attribute that binds it (``from .rouge import rouge_su`` makes a second
binding in ``evaluator`` and ``analysis``), and ``uninstall`` puts the
originals back. Each call becomes a span with its name, start, end,
parent span and run id; spans stay in memory (the first ``SPAN_CAP`` of
them, beyond that only the per-name totals) and are written when the run
ends. Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SPAN_CAP = 10000


def _units(args, kwargs, result):
    return {"units": result.candidate_units + result.reference_units}


def _sim_cells(args, kwargs, result):
    video, gt, n = args[0], args[1], args[2]
    return {"sim_cells": min(n, len(gt.sentences)) * len(video)}


def _iterations(args, kwargs, result):
    obj = result.objectives
    return {"iterations": len(obj) - 1,
            "objective_increases": sum(b > a + 1e-12 for a, b in zip(obj, obj[1:]))}


def _mmr_bytes(args, kwargs, result):
    # one (f, f, 3B) float64 temporary of summarize._chi_square_matrix,
    # computed from the array sizes, not measured
    features = args[0]
    f = sum(frames.shape[0] for frames in features.subshots)
    return {"bytes_computed": f * f * 3 * features.bins_per_channel * 8}


def _ppm_bytes(args, kwargs, result):
    return {"bytes": len(result.pixels)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size}


# (module, function, name used in metrics, count hook)
TARGETS = (
    ("vtseval.textproc", "stem", "textproc.stem", None),
    ("vtseval.porter", "stem", "porter.stem", None),
    ("vtseval.textproc", "preprocess", "textproc.preprocess", None),
    ("vtseval.rouge", "rouge_su", "rouge.rouge_su", _units),
    ("vtseval.rouge", "rouge_n", "rouge.rouge_n", _units),
    ("vtseval.evaluator", "score_summary", "evaluator.score_summary", None),
    ("vtseval.evaluator", "length_adjust", "evaluator.length_adjust", None),
    ("vtseval.visual", "chi_square", "visual.chi_square", None),
    ("vtseval.visual", "subshot_min_distance", "visual.subshot_min_distance", None),
    ("vtseval.visual", "pixel_summary_distance", "visual.pixel_summary_distance", None),
    ("vtseval.visual", "load_ppm", "visual.load_ppm", _ppm_bytes),
    ("vtseval.visual", "compute_histogram", "visual.compute_histogram", None),
    ("vtseval.summarize", "sentence_dp", "summarize.sentence_dp", _sim_cells),
    ("vtseval.summarize", "lloyd_cluster", "summarize.lloyd_cluster", _iterations),
    ("vtseval.summarize", "mmr_keyframes", "summarize.mmr_keyframes", _mmr_bytes),
    ("vtseval.summarize", "greedy_bow", "summarize.greedy_bow", None),
    ("vtseval.analysis", "judge_summary_pair", "analysis.judge_summary_pair", None),
    ("vtseval.analysis", "judge_subshot_pair", "analysis.judge_subshot_pair", None),
    ("vtseval.analysis", "classify_case", "analysis.classify_case", None),
    ("vtseval.corpus", "read_json", "corpus.read_json", _file_bytes),
    ("vtseval.corpus", "write_canonical", "corpus.write_canonical", _file_bytes),
    ("vtseval.corpus", "load_features", "corpus.load_features", None),
    ("vtseval.cli", "_cmd_evaluate", "cli.evaluate", None),
    ("vtseval.cli", "_cmd_summarize", "cli.summarize", None),
    ("vtseval.cli", "_cmd_features", "cli.features", None),
    ("vtseval.cli", "_cmd_correlate", "cli.correlate", None),
    ("vtseval.cli", "_cmd_compare", "cli.compare", None),
)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.stem_tokens: set[str] = set()
        self.distinct_per_round: list[int] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None))
                else:
                    self.dropped += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + value
            return result

        return traced

    def _wrap_stem(self, fn):
        tokens = self.stem_tokens

        def stem(token):
            tokens.add(token)
            return fn(token)

        return stem

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, hook)
            if name == "textproc.stem":
                wrapped = self._wrap_stem(wrapped)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "vtseval" or mod_name.startswith("vtseval."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def end_round(self) -> None:
        """Close a traced round: distinct stem inputs are counted per round."""
        self.distinct_per_round.append(len(self.stem_tokens))
        self.stem_tokens.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"run": self.run_id, "dropped_spans": self.dropped}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round averages of every per-layer metric (zero for untouched layers)."""
        def total(name, i):
            return self.totals.get(name, [0, 0.0, 0.0])[i] / rounds

        def count(key):
            return self.counts.get(key, 0) / rounds

        calls = total("textproc.stem", 0)
        distinct = sum(self.distinct_per_round) / rounds
        out = {
            "textproc.stem.calls": calls,
            "textproc.stem.distinct": distinct,
            "textproc.stem.useful_ratio": distinct / calls if calls else 0.0,
            "textproc.stem.s": total("textproc.stem", 1),
            "porter.stem.s": total("porter.stem", 1),
            "textproc.preprocess.calls": total("textproc.preprocess", 0),
            "textproc.preprocess.s": total("textproc.preprocess", 1),
            "rouge.rouge_su.calls": total("rouge.rouge_su", 0),
            "rouge.rouge_su.s": total("rouge.rouge_su", 1),
            "rouge.rouge_n.calls": total("rouge.rouge_n", 0),
            "rouge.rouge_n.s": total("rouge.rouge_n", 1),
            "rouge.units": count("rouge.rouge_su.units") + count("rouge.rouge_n.units"),
            "evaluator.score_summary.calls": total("evaluator.score_summary", 0),
            "evaluator.score_summary.self_s": total("evaluator.score_summary", 2),
            "evaluator.length_adjust.calls": total("evaluator.length_adjust", 0),
            "evaluator.length_adjust.s": total("evaluator.length_adjust", 1),
        }
        for fn in ("chi_square", "subshot_min_distance", "pixel_summary_distance"):
            out[f"visual.{fn}.calls"] = total(f"visual.{fn}", 0)
            out[f"visual.{fn}.s"] = total(f"visual.{fn}", 1)
        out.update({
            "visual.load_ppm.calls": total("visual.load_ppm", 0),
            "visual.load_ppm.bytes": count("visual.load_ppm.bytes"),
            "visual.load_ppm.s": total("visual.load_ppm", 1),
            "visual.compute_histogram.s": total("visual.compute_histogram", 1),
            "summarize.sentence_dp.s": total("summarize.sentence_dp", 1),
            "summarize.sentence_dp.sim_cells": count("summarize.sentence_dp.sim_cells"),
            "summarize.lloyd_cluster.s": total("summarize.lloyd_cluster", 1),
            "summarize.lloyd_cluster.iterations": count("summarize.lloyd_cluster.iterations"),
            "summarize.lloyd_cluster.objective_increases":
                count("summarize.lloyd_cluster.objective_increases"),
            "summarize.mmr_keyframes.s": total("summarize.mmr_keyframes", 1),
            "summarize.mmr_keyframes.bytes_computed": count("summarize.mmr_keyframes.bytes_computed"),
            "summarize.greedy_bow.s": total("summarize.greedy_bow", 1),
        })
        for fn in ("judge_summary_pair", "judge_subshot_pair"):
            out[f"analysis.{fn}.calls"] = total(f"analysis.{fn}", 0)
            out[f"analysis.{fn}.self_s"] = total(f"analysis.{fn}", 2)
        out["analysis.classify_case.calls"] = total("analysis.classify_case", 0)
        for fn in ("read_json", "write_canonical"):
            out[f"corpus.{fn}.calls"] = total(f"corpus.{fn}", 0)
            out[f"corpus.{fn}.bytes"] = count(f"corpus.{fn}.bytes")
            out[f"corpus.{fn}.s"] = total(f"corpus.{fn}", 1)
        out["corpus.load_features.s"] = total("corpus.load_features", 1)
        for cmd in ("evaluate", "summarize", "features", "correlate", "compare"):
            out[f"cli.{cmd}.self_s"] = total(f"cli.{cmd}", 2)
        return out
