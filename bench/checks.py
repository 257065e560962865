"""Correctness checks on a run's outputs, made outside the timed region.

Each check recomputes a result apart from the program (with the naive
oracles of ``tests/oracles.py`` or code of its own here) or tests a
property the method must have. Text is prepared independently of
``vtseval.textproc``: the benchmark tokenizes, reads the bundled stopword
list and calls the Porter stemmer itself, so a fault in the program's
text pipeline or any cache in front of it shows up as a mismatch.

A check that fails raises ``CheckError``; ``check(...)`` returns the
number of individual comparisons made, and observations that are reported
without deciding correctness.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import oracles
from gen import read_stopwords
from vtseval import porter
from vtseval.rng import SplitMix64

TIE_TOLERANCE = 1e-9
TEXT_ZERO = 0.0
PIXEL_ZERO = -1.0
PIXEL_TOLERANCE = 1e-12  # numpy and the oracle sum the bins in different orders


class CheckError(Exception):
    """An output disagrees with its independent recomputation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TextPrep:
    """tokenize [a-z0-9]+ -> drop stopwords -> Porter-stem alphabetic tokens."""

    def __init__(self, root: Path):
        self.stopwords = read_stopwords(root)
        self.stems: dict[str, str] = {}

    def __call__(self, sentence: str) -> list[str]:
        out = []
        for token in re.findall(r"[a-z0-9]+", sentence.lower()):
            if token in self.stopwords:
                continue
            if token not in self.stems:
                self.stems[token] = token if re.search(r"[0-9]", token) else porter.stem(token)
            out.append(self.stems[token])
        return out


def length_adjusted(gt: dict, n: int) -> list[str]:
    top = sorted(gt["sentences"], key=lambda s: s["rank"])[:n]
    return [s["text"] for s in sorted(top, key=lambda s: s["temporal_pos"])]


def expected_verdict(first: float, second: float, zero: float) -> str:
    if first <= zero and second <= zero:
        return "both_zero"
    if abs(first - second) <= TIE_TOLERANCE:
        return "both_equal"
    return "first_closer" if first > second else "second_closer"


def expected_case(vset: str, pb: str) -> str:
    if vset in ("both_zero", "both_equal"):
        return vset
    return "inequal_agrees_pb" if pb == vset else "inequal_disagrees_pb"


def average_rank_spearman(xs: list[float], ys: list[float]) -> float:
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def _check_selection(indices, n: int, m: int, where: str) -> None:
    _require(len(indices) == n, f"{where}: {len(indices)} indices, expected {n}")
    _require(all(isinstance(i, int) and 0 <= i < m for i in indices), f"{where}: index out of range")
    _require(all(a < b for a, b in zip(indices, indices[1:])), f"{where}: indices not strictly increasing")


class Checker:
    def __init__(self, root: Path, plan: dict, failed_labels: set[str]):
        self.meta = plan["meta"]
        self.failed = failed_labels
        self.prep = TextPrep(root)
        self.rng = SplitMix64(plan["seed"] ^ 0x5EED)
        self.compared = 0
        self.notes: dict[str, int] = {}

    def sample(self, items: list, k: int) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items[:k]

    def annotations(self, path: str) -> list[str]:
        return [s["text"] for s in _load(path)["subshots"]]

    def frames(self, path: str) -> list[list[list[float]]]:
        return [s["frames"] for s in _load(path)["subshots"]]

    # -- text scores -------------------------------------------------------

    def best_text_score(self, indices, gts) -> float:
        """Oracle best-reference ROUGE-SU F of a selection."""
        candidate = [self._anns[i] for i in indices]
        references = [length_adjusted(gt, len(indices)) for gt in gts]
        return oracles.naive_best_reference_score(candidate, references, self.prep)

    def author_scores(self, indices, gts, metric: str) -> list[tuple[float, float, float]]:
        """Oracle (P, R, F) of a selection against each length-adjusted reference."""
        candidate = [self._anns[i] for i in indices]
        out = []
        for gt in gts:
            reference = length_adjusted(gt, len(indices))
            if metric == "rouge-su":
                out.append(oracles.naive_rouge_su(candidate, reference, self.prep))
            else:
                out.append(oracles.naive_rouge_n(candidate, reference, int(metric[-1]), self.prep))
        return out

    def check_report(self, path: str, summary: str, metric: str, gts, oracle: bool) -> None:
        report = _load(path)
        rows = report["per_ground_truth"]
        _require([r["author_id"] for r in rows] == [g["author_id"] for g in gts],
                 f"{path}: authors differ from the ground truths")
        for r in rows:
            for key in ("precision", "recall", "f"):
                _require(0.0 <= r[key] <= 1.0, f"{path}: {r['author_id']}.{key} outside [0, 1]")
        best = max(r["f"] for r in rows)
        _require(report["score"] == best, f"{path}: score is not the best F")
        _require(report["best_author"] == next(r["author_id"] for r in rows if r["f"] == best),
                 f"{path}: best_author is not the first maximum")
        indices = _load(summary)["indices"]
        _require(report["length_used"] == len(indices), f"{path}: length_used wrong")
        self.compared += 1
        if not oracle:
            return
        for r, prf in zip(rows, self.author_scores(indices, gts, metric)):
            _require((r["precision"], r["recall"], r["f"]) == prf,
                     f"{path}: {r['author_id']} P/R/F {(r['precision'], r['recall'], r['f'])} "
                     f"!= oracle {prf}")
            self.compared += 1

    # -- pairs -------------------------------------------------------------

    def check_pairs(self, spec: dict, gts, pixel: dict | None, oracle_pairs: int) -> None:
        out = _load(spec["output"])
        records = out["pairs"]
        _require(len(records) == spec["count"], f"{spec['output']}: {len(records)} pairs, "
                 f"expected {spec['count']}")
        counts, cases = {}, {}
        for rec in records:
            _check_selection(rec["a"], spec["n"], spec["m"], f"pair {rec['pair']}.a")
            _check_selection(rec["b"], spec["n"], spec["m"], f"pair {rec['pair']}.b")
            v = rec["vset"]
            want = expected_verdict(v["first_score"], v["second_score"], TEXT_ZERO)
            _require(v["verdict"] == want, f"pair {rec['pair']}: text verdict {v['verdict']}, "
                     f"scores say {want}")
            counts[want] = counts.get(want, 0) + 1
            if pixel is not None:
                pb = rec["pb"]
                want_pb = expected_verdict(pb["first_score"], pb["second_score"], PIXEL_ZERO)
                _require(pb["verdict"] == want_pb, f"pair {rec['pair']}: pixel verdict "
                         f"{pb['verdict']}, scores say {want_pb}")
                case = expected_case(want, want_pb)
                _require(rec["case"] == case, f"pair {rec['pair']}: case {rec['case']}, "
                         f"verdicts say {case}")
                cases[case] = cases.get(case, 0) + 1
            self.compared += 1
        _require(out["verdict_counts"] == counts, f"{spec['output']}: verdict_counts wrong")
        if pixel is not None:
            _require(out["case_counts"] == cases, f"{spec['output']}: case_counts wrong")
        for rec in self.sample(records, oracle_pairs):
            for side, key in (("a", "first_score"), ("b", "second_score")):
                want = self.best_text_score(rec[side], gts)
                _require(rec["vset"][key] == want, f"pair {rec['pair']}.{side}: text score "
                         f"{rec['vset'][key]} != oracle {want}")
                if pixel is not None:
                    d = oracles.naive_pixel_distance(rec[side], pixel["gt"], pixel["frames"])
                    _require(abs(rec["pb"][key] + d) <= PIXEL_TOLERANCE,
                             f"pair {rec['pair']}.{side}: pixel score {rec['pb'][key]} != "
                             f"-oracle {d}")
                self.compared += 1

    # -- workloads ---------------------------------------------------------

    def score_paper(self) -> None:
        meta = self.meta
        self._anns = self.annotations(meta["annotations"])
        gts = _load(meta["ground_truths"])["summaries"]
        if "evaluate" not in self.failed:
            oracle_summaries = set(self.sample(range(len(meta["summaries"])), 2))
            for metric, reports in meta["reports"].items():
                for i, (path, summary) in enumerate(zip(reports, meta["summaries"])):
                    self.check_report(path, summary, metric, gts, i in oracle_summaries)
        if "compare_pairs" not in self.failed:
            self.check_pairs(meta["pairs"], gts, None, oracle_pairs=1)
        if "correlate" not in self.failed:
            corr = meta["correlate"]
            a = {r["item_id"]: r["score"] for r in _load(corr["a"])["scores"]}
            b = {r["item_id"]: r["score"] for r in _load(corr["b"])["scores"]}
            ids = sorted(a)
            want = average_rank_spearman([a[i] for i in ids], [b[i] for i in ids])
            got = _load(corr["output"])
            _require(got["n"] == len(ids), "correlate: wrong item count")
            _require(abs(got["spearman"] - want) <= 1e-12,
                     f"correlate: spearman {got['spearman']} != {want}")
            self.compared += 1

    def agreement(self) -> None:
        meta = self.meta
        expected = self.frames(meta["ingest"]["expected"])
        if "features" not in self.failed:
            got = _load(meta["ingest"]["output"])
            _require(got["bins_per_channel"] * 3 == len(expected[0][0]), "features: wrong bins")
            ingested = [s["frames"] for s in got["subshots"]]
            _require(len(ingested) == len(expected), "features: wrong subshot count")
            for i, (have, want) in enumerate(zip(ingested, expected)):
                _require(have == want, f"features: subshot {i} histograms differ from the "
                         "constructed ones")
                self.compared += len(want)
        self._anns = self.annotations(meta["annotations"])
        gts = _load(meta["ground_truths"])["summaries"]
        if "compare_pairs" not in self.failed:
            pixel = {"gt": _load(meta["gt_subshots"])["indices"], "frames": expected}
            for spec in meta["pairs"]:
                self.check_pairs(spec, gts, pixel, oracle_pairs=1)
        if "compare_triples" not in self.failed:
            for spec in meta["triples"]:
                self.check_triples(spec)

    def check_triples(self, spec: dict) -> None:
        m = spec["m"]
        out = _load(spec["output"])
        records = out["triples"]
        total = m * (m - 1) * (m - 2) // 2
        _require(len(records) == total, f"triples: {len(records)} records, expected {total}")
        _require(sum(out["case_counts"].values()) == total, "triples: case_counts do not sum")
        keys = {(r["ref"], r["x"], r["y"]) for r in records}
        _require(len(keys) == total and all(x < y and ref not in (x, y) and 0 <= x and y < m
                                            for ref, x, y in keys), "triples: bad index triples")
        cases = {}
        for r in records:
            v = expected_verdict(r["vset"]["first_score"], r["vset"]["second_score"], TEXT_ZERO)
            p = expected_verdict(r["pb"]["first_score"], r["pb"]["second_score"], PIXEL_ZERO)
            _require((r["vset"]["verdict"], r["pb"]["verdict"]) == (v, p),
                     f"triple {(r['ref'], r['x'], r['y'])}: verdicts do not follow the scores")
            case = expected_case(v, p)
            _require(r["case"] == case, f"triple {(r['ref'], r['x'], r['y'])}: case {r['case']}, "
                     f"verdicts say {case}")
            cases[case] = cases.get(case, 0) + 1
        _require(out["case_counts"] == cases, "triples: case_counts wrong")
        self.compared += total

        anns = self.annotations(spec["annotations"])
        frames = self.frames(spec["features"])
        for r in self.sample(records, 15):
            for side, key in (("x", "first_score"), ("y", "second_score")):
                f = oracles.naive_rouge_su([anns[r[side]]], [anns[r["ref"]]], self.prep)[2]
                _require(r["vset"][key] == f, f"triple {(r['ref'], r['x'], r['y'])}.{side}: "
                         f"text score {r['vset'][key]} != oracle {f}")
                d = oracles.min_cross_distance(frames[r[side]], frames[r["ref"]])
                _require(abs(r["pb"][key] + d) <= PIXEL_TOLERANCE,
                         f"triple {(r['ref'], r['x'], r['y'])}.{side}: pixel score "
                         f"{r['pb'][key]} != -oracle {d}")
                self.compared += 1

        human = {(j["ref"], j["x"], j["y"]): j["verdict"] for j in _load(spec["human"])["judgments"]}
        judged = [r for r in records if (r["ref"], r["x"], r["y"]) in human]
        for key in ("vset", "pb"):
            hits = sum(r[key]["verdict"] == human[(r["ref"], r["x"], r["y"])] for r in judged)
            _require(out["agreement"][key] == hits / len(judged),
                     f"triples: {key} agreement {out['agreement'][key]} != {hits}/{len(judged)}")
        _require(out["agreement"]["n"] == len(judged), "triples: agreement n wrong")

    def baselines(self) -> None:
        import numpy as np
        from vtseval.summarize import lloyd_cluster

        meta = self.meta
        anns = self.annotations(meta["annotations"])
        gts = _load(meta["ground_truths"])["summaries"]
        frames = self.frames(meta["features"])
        m = len(anns)
        outputs = {}
        for o in meta["outputs"]:
            if f"summarize_{o['method']}" in self.failed:
                continue
            indices = _load(o["output"])["indices"]
            _check_selection(indices, o["n"], m, o["output"])
            outputs[(o["method"], o["n"])] = (o, indices)
            self.compared += 1

        flat = np.array([h for shot in frames for h in shot], dtype=np.float64)
        owners = [i for i, shot in enumerate(frames) for _ in shot]
        for (method, n), (o, indices) in outputs.items():
            if method == "dp":
                sentences = length_adjusted(gts[o["author"]], n)
                sim = [[oracles.naive_rouge_su([s], [a], self.prep)[2] for a in anns]
                       for s in sentences]
                optimum = _plain_ordered_optimum(sim)
                total = oracles.fold_right_sum(sim[j][indices[j]] for j in range(len(sim)))
                _require(total == optimum, f"dp n={n}: total {total} != independent optimum "
                         f"{optimum}")
                for other in ("uniform", "bow"):
                    if (other, n) in outputs:
                        sel = outputs[(other, n)][1]
                        alt = oracles.fold_right_sum(sim[j][sel[j]] for j in range(len(sim)))
                        _require(total >= alt, f"dp n={n}: total {total} below {other} {alt}")
                self.compared += 1
            elif method == "cluster":
                # Reported, not gated: mean centroids do not minimize chi-square,
                # so the objective can rise between passes on some seeds.
                rises = objective_increases(lloyd_cluster(flat, n, o["seed"]).objectives)
                self.notes["lloyd_objective_increases"] = (
                    self.notes.get("lloyd_objective_increases", 0) + rises)
            elif method == "mmr":
                dist = [_chi_square_row(flat[i], flat).tolist() for i in range(len(flat))]
                first = oracles.mmr_step_argmin(dist, list(range(len(flat))), [], 0.5)
                _require(owners[first] in indices, f"mmr n={n}: first pick (frame {first}, "
                         f"subshot {owners[first]}) not in the output")
                self.compared += 1


def objective_increases(objectives: list[float]) -> int:
    """Assignment passes after which the Lloyd objective rose (beyond rounding)."""
    return sum(b > a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def _chi_square_row(a, rows):
    import numpy as np

    total = a[None, :] + rows
    diff = a[None, :] - rows
    frac = np.divide(diff * diff, total, out=np.zeros_like(total), where=total > 0)
    return 0.5 * frac.sum(axis=1)


def _plain_ordered_optimum(sim: list[list[float]]) -> float:
    """Best right-folded total over strictly increasing assignments, plain O(k m^2) DP."""
    k, m = len(sim), len(sim[0])
    nxt = [0.0] * (m + 1)  # best total for sentences j+1.. using subshots >= i
    for j in range(k - 1, -1, -1):
        cur = [float("-inf")] * (m + 1)
        for i in range(m):
            cur[i] = max(sim[j][t] + nxt[t + 1] for t in range(i, m))
        nxt = cur
    return nxt[0]


def check(root: Path, plan: dict, failed_labels: set[str]) -> tuple[int, dict[str, int]]:
    """Run the workload's checks; the number of comparisons made, and observations."""
    checker = Checker(root, plan, failed_labels)
    getattr(checker, plan["workload"].replace("-", "_"))()
    return checker.compared, checker.notes
