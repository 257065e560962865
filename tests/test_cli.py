import contextlib
import io
import json
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval import cli, corpus, rouge
from vtseval.cli import main
from vtseval.corpus import Subshot, VideoRecord
from vtseval.textproc import tokenize

import oracles
from test_visual import write_ppm


@pytest.fixture
def paths(data_dir):
    return {
        "annotations": str(data_dir / "video12.annotations.json"),
        "ground_truth": str(data_dir / "video12.gts.json"),
        "features": str(data_dir / "video12.features.json"),
        "summary": str(data_dir / "video12.summary_a.json"),
    }


class TestEvaluate:
    def test_self_summary_scores_one(self, paths, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--annotations", paths["annotations"],
                "--ground-truth", paths["ground_truth"],
                "--summary", paths["summary"],
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["score"] == 1.0
        assert report["best_author"] == "gt_a"
        assert report["length_used"] == 4
        assert report["tool_version"]
        assert report["config"]["metric"] == "rouge-su"
        assert "score 1.0" in capsys.readouterr().out

    def test_deterministic_bytes(self, paths, tmp_path):
        args = [
            "evaluate",
            "--annotations", paths["annotations"],
            "--ground-truth", paths["ground_truth"],
            "--summary", paths["summary"],
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        # outputs embed the config, which includes the output path itself;
        # normalize it before comparing
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("output")
        b["config"].pop("output")
        assert a == b

    def test_missing_file_exits_2(self, paths, tmp_path):
        code = main(
            [
                "evaluate",
                "--annotations", str(tmp_path / "absent.json"),
                "--ground-truth", paths["ground_truth"],
                "--summary", paths["summary"],
                "--output", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "r.json").exists()

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--annotations", "x"])
        assert exc.value.code == 1

    def test_unknown_metric_exits_1(self, paths, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "evaluate",
                    "--annotations", paths["annotations"],
                    "--ground-truth", paths["ground_truth"],
                    "--summary", paths["summary"],
                    "--metric", "rouge-l",
                    "--output", str(tmp_path / "r.json"),
                ]
            )
        assert exc.value.code == 1


class TestSummarize:
    def test_uniform_formula(self, tmp_path):
        video = VideoRecord(
            video_id="ten",
            subshot_seconds=5.0,
            subshots=tuple(
                Subshot(index=i, start_s=5.0 * i, end_s=5.0 * (i + 1), annotation=f"shot {i}")
                for i in range(10)
            ),
        )
        ann = tmp_path / "ten.json"
        corpus.save_annotations(ann, video)
        out = tmp_path / "s.json"
        code = main(
            ["summarize", "--method", "uniform", "--annotations", str(ann),
             "--n", "5", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text()) == {"video_id": "ten", "indices": [0, 2, 4, 6, 8]}

    @pytest.mark.parametrize("method", ["uniform", "cluster", "mmr", "bow", "dp"])
    def test_all_methods_byte_identical_reruns(self, paths, tmp_path, method):
        args = [
            "summarize", "--method", method,
            "--annotations", paths["annotations"],
            "--features", paths["features"],
            "--ground-truth", paths["ground_truth"],
            "--n", "4", "--seed", "11",
        ]
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(out1.read_text())
        assert len(summary["indices"]) == 4

    def test_produced_summary_feeds_evaluate(self, paths, tmp_path):
        summary = tmp_path / "bow.json"
        assert main(
            ["summarize", "--method", "bow",
             "--annotations", paths["annotations"],
             "--ground-truth", paths["ground_truth"],
             "--n", "4", "--output", str(summary)]
        ) == 0
        report = tmp_path / "report.json"
        assert main(
            ["evaluate",
             "--annotations", paths["annotations"],
             "--ground-truth", paths["ground_truth"],
             "--summary", str(summary),
             "--output", str(report)]
        ) == 0
        assert json.loads(report.read_text())["score"] == 1.0

    def test_author_selection(self, paths, tmp_path):
        out = tmp_path / "s.json"
        assert main(
            ["summarize", "--method", "dp",
             "--annotations", paths["annotations"],
             "--ground-truth", paths["ground_truth"],
             "--author", "gt_b",
             "--n", "4", "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["indices"] == [3, 4, 7, 10]

    def test_missing_features_exits_2(self, paths, tmp_path):
        code = main(
            ["summarize", "--method", "mmr",
             "--annotations", paths["annotations"],
             "--n", "4", "--output", str(tmp_path / "s.json")]
        )
        assert code == 2

    def test_n_too_large_exits_2(self, paths, tmp_path):
        code = main(
            ["summarize", "--method", "uniform",
             "--annotations", paths["annotations"],
             "--n", "13", "--output", str(tmp_path / "s.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_cluster_n_below_one_exits_2(self, paths, tmp_path, capsys, n):
        code = main(
            ["summarize", "--method", "cluster",
             "--annotations", paths["annotations"], "--features", paths["features"],
             "--n", n, "--output", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"cannot select {n} distinct subshots from 12"}
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("n", ["0", "13"])
    @pytest.mark.parametrize("method", ["uniform", "cluster", "mmr", "bow", "dp"])
    def test_every_method_refuses_a_bad_n_with_one_message(self, paths, tmp_path, capsys, method, n):
        code = main(
            ["summarize", "--method", method, "--annotations", paths["annotations"],
             "--features", paths["features"], "--ground-truth", paths["ground_truth"],
             "--n", n, "--output", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"cannot select {n} distinct subshots from 12"}
        assert not (tmp_path / "s.json").exists()


class TestFeatures:
    def test_builds_feature_file(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        write_ppm(frames / "frame_0_0.ppm", 2, 1, [(255, 0, 0), (0, 255, 0)])
        write_ppm(frames / "frame_0_1.ppm", 1, 1, [(0, 0, 255)])
        write_ppm(frames / "frame_1_0.ppm", 1, 1, [(128, 128, 128)])
        out = tmp_path / "features.json"
        code = main(
            ["features", "--frames-dir", str(frames), "--bins", "16",
             "--video-id", "clip", "--output", str(out)]
        )
        assert code == 0
        features = corpus.load_features(out)
        assert features.video_id == "clip"
        assert len(features) == 2
        assert features.subshots[0].shape == (2, 48)

    def test_one_bin_per_channel_counts_every_sample_in_its_channel(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        write_ppm(frames / "frame_0_0.ppm", 2, 1, [(255, 0, 7), (0, 255, 128)])
        out = tmp_path / "features.json"
        assert main(["features", "--frames-dir", str(frames), "--bins", "1",
                     "--video-id", "clip", "--output", str(out)]) == 0
        assert corpus.load_features(out).subshots[0].tolist() == [[1 / 3, 1 / 3, 1 / 3]]

    def test_gap_in_subshot_indices_exits_2(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        write_ppm(frames / "frame_0_0.ppm", 1, 1, [(0, 0, 0)])
        write_ppm(frames / "frame_2_0.ppm", 1, 1, [(0, 0, 0)])
        code = main(
            ["features", "--frames-dir", str(frames), "--video-id", "clip",
             "--output", str(tmp_path / "f.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("first, second", [("frame_0_0.ppm", "frame_0_00.ppm"),
                                               ("frame_00_1.ppm", "frame_0_1.ppm")])
    def test_two_files_naming_one_frame_exit_2_naming_both(self, tmp_path, capsys, first, second):
        """Zero-padded numbers parse alike: the second file would be a frame the video lacks."""
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in ("frame_0_0.ppm", "frame_0_1.ppm", first, second):
            write_ppm(frames / name, 1, 1, [(0, 0, 0)])
        out = tmp_path / "f.json"
        code = main(["features", "--frames-dir", str(frames), "--video-id", "clip",
                     "--output", str(out)])
        assert code == 2
        subshot, frame = (int(part) for part in second[len("frame_"):-len(".ppm")].split("_"))
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorpusValidationError",
            "message": f"{frames / first} and {frames / second} are both frame {frame} "
                       f"of subshot {subshot}"}
        assert not out.exists()

    @pytest.mark.parametrize("name", ["frame_١_٠.ppm", "frame_0_1.ppm\n",
                                      "frame_１_0.ppm"])
    def test_names_beyond_ascii_digits_or_past_the_suffix_are_not_frames(self, tmp_path, name):
        """Such a file was once read as a frame: an Arabic-Indic one as frame 0 of subshot 1,
        the newline one as a second frame of subshot 0."""
        frames = tmp_path / "frames"
        frames.mkdir()
        for frame in ("frame_0_0.ppm", name):
            write_ppm(frames / frame, 1, 1, [(0, 0, 0)])
        out = tmp_path / "features.json"
        assert main(["features", "--frames-dir", str(frames), "--bins", "1",
                     "--video-id", "clip", "--output", str(out)]) == 0
        assert [s.shape for s in corpus.load_features(out).subshots] == [(1, 3)]

    @staticmethod
    def refusal(capsys, frames_dir, out, bins="16"):
        """The error of a features command that must exit 2 and write nothing."""
        assert main(["features", "--frames-dir", frames_dir, "--bins", bins,
                     "--video-id", "clip", "--output", str(out)]) == 2
        assert not out.exists()
        return json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("bins", ["3", "0"])
    @pytest.mark.parametrize("frames", [{"frame_0_0.ppm": b"P6\n2 1\n255\n\x00"}, {}],
                             ids=["truncated_first_frame", "empty_directory"])
    def test_bins_are_refused_before_the_directory_is_read(self, tmp_path, capsys, frames, bins):
        """Once the truncated frame, or "no frame files found", was reported first."""
        (tmp_path / "frames").mkdir()
        for name, blob in frames.items():
            (tmp_path / "frames" / name).write_bytes(blob)
        assert self.refusal(capsys, str(tmp_path / "frames"), tmp_path / "f.json", bins) == {
            "error": "ValueError", "message": f"bins_per_channel must divide 256, got {bins}"}

    @pytest.mark.parametrize("absolute", [False, True], ids=["dot_slash", "absolute"])
    @pytest.mark.parametrize("case", ["directory", "truncated", "two_names"])
    def test_ingest_error_texts_are_unchanged(self, tmp_path, capsys, monkeypatch, case, absolute):
        monkeypatch.chdir(tmp_path)
        frames = tmp_path / "frames"
        frames.mkdir()
        write_ppm(frames / "frame_1_0.ppm", 1, 1, [(0, 0, 0)])
        if case == "directory":
            (frames / "frame_0_0.ppm").mkdir()
        elif case == "truncated":
            (frames / "frame_0_0.ppm").write_bytes(b"P6\n2 1\n255\n\x00\x00\x00")
        else:
            for name in ("frame_0_0.ppm", "frame_0_1.ppm", "frame_00_1.ppm"):
                write_ppm(frames / name, 1, 1, [(0, 0, 0)])
        shown = str(frames) if absolute else "frames"  # how the paths in the message read
        want = {
            "directory": ("CorpusIOError", f"cannot read {shown}/frame_0_0.ppm: [Errno 21] "
                                           f"Is a directory: '{shown}/frame_0_0.ppm'"),
            "truncated": ("CorpusParseError", f"{shown}/frame_0_0.ppm: truncated payload, "
                                              "expected 6 bytes, got 3"),
            "two_names": ("CorpusValidationError", f"{shown}/frame_00_1.ppm and "
                                                   f"{shown}/frame_0_1.ppm are both frame 1 "
                                                   "of subshot 0"),
        }[case]
        frames_dir = str(frames) if absolute else "./frames/"
        error = self.refusal(capsys, frames_dir, tmp_path / "f.json")
        assert (error["error"], error["message"]) == want


def oracle_features(frames_dir: Path, bins: int, video_id: str) -> tuple[str, str]:
    """The feature file text and stdout of a features command, by the oracle PPM reader and
    histogram, frame by frame, and the stdlib's JSON writer."""
    frames = {}
    for path in frames_dir.iterdir():
        match = re.fullmatch(r"frame_([0-9]+)_([0-9]+)\.ppm", path.name)
        if match:
            frames[int(match[1]), int(match[2])] = path
    subshots: dict[int, list] = {}
    for (subshot, _), path in sorted(frames.items()):
        frame = oracles.ppm_frame(path.read_bytes(), path)
        subshots.setdefault(subshot, []).append(
            oracles.channel_histogram(frame.pixels, bins).tolist())
    doc = {"video_id": video_id, "bins_per_channel": bins,
           "subshots": [{"index": i, "frames": rows} for i, rows in sorted(subshots.items())]}
    stdout = f"{video_id}: {len(subshots)} subshots, {len(frames)} frames\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", stdout


@st.composite
def frame_files(draw):
    """File name -> bytes: 1-4 subshots of 1-3 frames from 1x1 to 4x3, some headers with
    comments, some numbers zero-padded, and files that are not frames."""
    files = {}
    shots = draw(st.lists(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                                   min_size=1, max_size=3), min_size=1, max_size=4))
    for subshot, sizes in enumerate(shots):
        for k, (width, height) in enumerate(sizes):
            pad = draw(st.sampled_from(["", "", "0", "00"]))
            comment = draw(st.sampled_from([b"", b"# by hand\n", b"\n#\n"]))
            pixels = draw(st.binary(min_size=3 * width * height, max_size=3 * width * height))
            files[f"frame_{pad}{subshot}_{k}.ppm"] = (
                b"P6\n" + comment + b"%d %d\n255\n" % (width, height) + pixels)
    for name in draw(st.sets(st.sampled_from(
            ["notes.txt", "frame_0_0.png", "frame_a_0.ppm", "thumb.ppm", "frame_0.ppm"]))):
        files[name] = draw(st.binary(max_size=4))
    return files


@settings(max_examples=60, deadline=None)
@given(frame_files(), st.sampled_from([1, 2, 16, 256]))
def test_features_equals_the_oracle_pipeline(tmp_path_factory, files, bins):
    frames = tmp_path_factory.mktemp("frames")
    for name, blob in files.items():
        (frames / name).write_bytes(blob)
    out = frames.parent / f"{frames.name}.features.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["features", "--frames-dir", str(frames), "--bins", str(bins),
                     "--video-id", "clip", "--output", str(out)]) == 0
    want_file, want_stdout = oracle_features(frames, bins, "clip")
    assert out.read_bytes() == want_file.encode("utf-8")
    assert stdout.getvalue() == want_stdout


class TestCorrelate:
    def write_scores(self, path, scores):
        corpus.write_canonical(
            path, {"scores": [{"item_id": k, "score": v} for k, v in scores.items()]}
        )

    def test_identical_lists(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.write_scores(a, {"s1": 0.1, "s2": 0.5, "s3": 0.9})
        code = main(["correlate", "--scores-a", str(a), "--scores-b", str(a)])
        assert code == 0
        assert "spearman 1.000000" in capsys.readouterr().out

    def test_reversed_lists(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_scores(a, {"s1": 0.1, "s2": 0.5, "s3": 0.9})
        self.write_scores(b, {"s1": 0.9, "s2": 0.5, "s3": 0.1})
        out = tmp_path / "rho.json"
        code = main(
            ["correlate", "--scores-a", str(a), "--scores-b", str(b), "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["spearman"] == -1.0

    def test_mismatched_items_exit_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_scores(a, {"s1": 0.1, "s2": 0.5})
        self.write_scores(b, {"s1": 0.1, "s3": 0.5})
        assert main(["correlate", "--scores-a", str(a), "--scores-b", str(b)]) == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e999", '"nan"'])
    def test_non_finite_score_exits_2(self, tmp_path, capsys, bad):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_scores(a, {"s1": 0.1, "s2": 0.5, "s3": 0.9})
        b.write_text(
            '{"scores": [{"item_id": "s1", "score": %s}, {"item_id": "s2", "score": 0.5},'
            ' {"item_id": "s3", "score": 0.9}]}' % bad
        )
        out = tmp_path / "rho.json"
        args = ["correlate", "--scores-a", str(a), "--scores-b", str(b), "--output", str(out)]
        assert main(args) == 2
        assert str(b) in capsys.readouterr().err
        assert not out.exists()

    def run_on_rows(self, tmp_path, capsys, rows):
        """Correlate a good file with one holding the given rows: (exit code, error message)."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_scores(a, {"x": 0.1, "y": 0.5, "z": 0.9})
        b.write_text(json.dumps({"scores": rows}))
        out = tmp_path / "rho.json"
        code = main(["correlate", "--scores-a", str(a), "--scores-b", str(b),
                     "--output", str(out)])
        assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        return code, json.loads(err)["message"] if err else None

    def test_repeated_item_exits_2_naming_the_row(self, tmp_path, capsys):
        rows = [{"item_id": "x", "score": 0.2}, {"item_id": "y", "score": 0.4},
                {"item_id": "x", "score": 0.9}, {"item_id": "z", "score": 0.6}]
        code, message = self.run_on_rows(tmp_path, capsys, rows)
        assert code == 2
        assert message == f"{tmp_path / 'b.json'}: scores[2].item_id: 'x' is scored twice"

    @pytest.mark.parametrize("bad", [True, "0.1", {}, None, [0.5]])
    def test_score_that_is_not_a_number_exits_2(self, tmp_path, capsys, bad):
        rows = [{"item_id": "x", "score": 0.2}, {"item_id": "y", "score": bad},
                {"item_id": "z", "score": 0.6}]
        code, message = self.run_on_rows(tmp_path, capsys, rows)
        assert code == 2
        assert message == (
            f"{tmp_path / 'b.json'}: scores[1].score: expected float, got {type(bad).__name__}")

    @pytest.mark.parametrize("row,tail", [
        ({"item_id": 7, "score": 0.5}, "scores[0].item_id: expected str, got int"),
        ({"item_id": "x"}, "scores[0]: missing field 'score'"),
        ("x", "scores[0] must be an object"),
    ])
    def test_malformed_row_exits_2_naming_it(self, tmp_path, capsys, row, tail):
        code, message = self.run_on_rows(tmp_path, capsys, [row])
        assert code == 2
        assert message == f"{tmp_path / 'b.json'}: {tail}"

    def test_int_score_reads_as_float(self, tmp_path, capsys):
        rows = [{"item_id": "x", "score": 0}, {"item_id": "y", "score": 1},
                {"item_id": "z", "score": 2}]
        assert self.run_on_rows(tmp_path, capsys, rows)[0] == 0


class TestBadNumbers:
    def test_non_numeric_frame_entry_exits_2(self, paths, tmp_path, capsys):
        for bad in ({"a": 1}, "0.5"):
            doc = json.loads(Path(paths["features"]).read_text())
            doc["subshots"][3]["frames"][1][0] = bad
            features = tmp_path / "f.json"
            features.write_text(json.dumps(doc))
            code = main(["summarize", "--method", "mmr", "--annotations", paths["annotations"],
                         "--features", str(features), "--n", "4",
                         "--output", str(tmp_path / "s.json")])
            assert code == 2
            assert json.loads(capsys.readouterr().err)["message"] == (
                f"{features}: subshots[3].frames: ragged or non-numeric"
            )
            assert not (tmp_path / "s.json").exists()

    def test_frame_that_overflows_exits_2_naming_the_features_file(self, paths, tmp_path, capsys):
        doc = json.loads(Path(paths["features"]).read_text())
        doc["subshots"][3]["frames"][1][0] = 12345.5
        features = tmp_path / "f.json"
        features.write_text(json.dumps(doc).replace("12345.5", "1e999"))
        code = main(["summarize", "--method", "mmr", "--annotations", paths["annotations"],
                     "--features", str(features), "--n", "4",
                     "--output", str(tmp_path / "s.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorpusValidationError",
            "message": f"{features}: subshots[3].frames[1]: histogram sums to inf, expected 1",
        }
        assert not (tmp_path / "s.json").exists()

    def test_int_beyond_float_range_exits_2_naming_the_field(self, paths, tmp_path, capsys):
        text = Path(paths["annotations"]).read_text()
        annotations = tmp_path / "a.json"
        annotations.write_text(text.replace('"end_s": 5.0', '"end_s": 1' + "0" * 400, 1))
        code = main(["evaluate", "--annotations", str(annotations),
                     "--ground-truth", paths["ground_truth"], "--summary", paths["summary"],
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            f"{annotations}: subshots[0].end_s: must be finite"
        )

    def test_keyframe_time_beyond_float_range_exits_2_naming_it(self, paths, tmp_path, capsys):
        summary = tmp_path / "k.json"
        summary.write_text('{"video_id": "video12", "keyframe_times_s": [12.5, 1%s]}'
                           % ("0" * 400))
        code = main(["evaluate", "--annotations", paths["annotations"],
                     "--ground-truth", paths["ground_truth"], "--summary", str(summary),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorpusValidationError",
            "message": f"{summary}: keyframe_times_s[1]: must be finite",
        }
        assert not (tmp_path / "r.json").exists()

    def test_keyframe_time_that_overflows_exits_2_naming_it(self, paths, tmp_path, capsys):
        summary = tmp_path / "k.json"
        summary.write_text('{"video_id": "video12", "keyframe_times_s": [12.5, 1e999]}')
        code = main(["evaluate", "--annotations", paths["annotations"],
                     "--ground-truth", paths["ground_truth"], "--summary", str(summary),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorpusValidationError",
            "message": f"{summary}: keyframe_times_s[1]: must be finite",
        }
        assert not (tmp_path / "r.json").exists()


def test_unreadable_stopwords_file_exits_2_naming_it(paths, tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = main(["evaluate", "--annotations", paths["annotations"],
                 "--ground-truth", paths["ground_truth"], "--summary", paths["summary"],
                 "--stopwords", str(missing), "--output", str(tmp_path / "r.json")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "CorpusIOError"
    assert error["message"].startswith(f"cannot read {missing}: ")
    assert not (tmp_path / "r.json").exists()


class TestNotUtf8:
    """Input bytes that are not UTF-8 exit 2 with a parse error that names the file."""

    def run(self, paths, tmp_path, capsys, *extra):
        argv = ["evaluate", "--annotations", paths["annotations"],
                "--ground-truth", paths["ground_truth"], "--summary", paths["summary"],
                "--output", str(tmp_path / "r.json"), *extra]
        assert main(argv) == 2
        assert not (tmp_path / "r.json").exists()
        return json.loads(capsys.readouterr().err)

    def test_annotations_file(self, paths, tmp_path, capsys):
        annotations = tmp_path / "a.json"
        annotations.write_bytes(b'{"video_id": "v\xff"}')
        paths = {**paths, "annotations": str(annotations)}
        error = self.run(paths, tmp_path, capsys)
        assert error["error"] == "CorpusParseError"
        assert error["message"].startswith(f"{annotations}: not UTF-8 text: ")

    def test_stopwords_file(self, paths, tmp_path, capsys):
        stops = tmp_path / "stop.txt"
        stops.write_bytes(b"\xff\xfe")
        error = self.run(paths, tmp_path, capsys, "--stopwords", str(stops))
        assert error["error"] == "CorpusParseError"
        assert error["message"].startswith(f"{stops}: not UTF-8 text: ")


def test_stopwords_flag_reaches_every_text_command(paths, tmp_path):
    """With every word of the fixture a stopword, no text has a unit: all text scores are 0."""
    texts = [shot.annotation for shot in corpus.load_annotations(paths["annotations"]).subshots]
    texts += [s.text for gt in corpus.load_ground_truths(paths["ground_truth"])
              for s in gt.sentences]
    stops = tmp_path / "stop.txt"
    stops.write_text("\n".join(sorted(set(tokenize(" ".join(texts))))) + "\n")
    common = ["--annotations", paths["annotations"], "--ground-truth", paths["ground_truth"],
              "--stopwords", str(stops)]
    out = tmp_path / "out.json"

    assert main(["evaluate", *common, "--summary", paths["summary"], "--output", str(out)]) == 0
    assert json.loads(out.read_text())["score"] == 0.0
    for method in ("bow", "dp"):  # nothing to cover or match: uniform, or the first n
        assert main(["summarize", "--method", method, *common, "--n", "4",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["indices"] == ([0, 3, 6, 9] if method == "bow"
                                                          else [0, 1, 2, 3])
    assert main(["compare", "--mode", "pairs", *common, "--count", "5", "--n", "4",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["verdict_counts"] == {"both_zero": 5}
    assert main(["compare", "--mode", "triples", "--annotations", paths["annotations"],
                 "--stopwords", str(stops), "--features", paths["features"],
                 "--output", str(out)]) == 0
    assert {r["vset"]["verdict"] for r in json.loads(out.read_text())["triples"]} == {"both_zero"}


class TestCompare:
    def test_pairs_mode(self, paths, tmp_path):
        out = tmp_path / "pairs.json"
        code = main(
            ["compare", "--mode", "pairs",
             "--annotations", paths["annotations"],
             "--ground-truth", paths["ground_truth"],
             "--features", paths["features"],
             "--gt-subshots", paths["summary"],
             "--count", "10", "--n", "4", "--seed", "3",
             "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["pairs"]) == 10
        assert sum(data["verdict_counts"].values()) == 10
        assert sum(data["case_counts"].values()) == 10
        for record in data["pairs"]:
            assert {"pair", "a", "b", "vset", "pb", "case"} <= set(record)

    def test_triples_mode_with_human_agreement(self, paths, tmp_path):
        out = tmp_path / "triples.json"
        code = main(
            ["compare", "--mode", "triples",
             "--annotations", paths["annotations"],
             "--features", paths["features"],
             "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        m = 12
        assert len(data["triples"]) == m * (m - 1) * (m - 2) // 2
        assert sum(data["case_counts"].values()) == len(data["triples"])
        first = data["triples"][0]
        assert (first["ref"], first["x"], first["y"]) == (0, 1, 2)

        human = tmp_path / "human.json"
        human.write_text(
            json.dumps(
                {
                    "judgments": [
                        {"ref": t["ref"], "x": t["x"], "y": t["y"],
                         "verdict": t["vset"]["verdict"]}
                        for t in data["triples"][:20]
                    ]
                }
            )
        )
        out2 = tmp_path / "triples2.json"
        code = main(
            ["compare", "--mode", "triples",
             "--annotations", paths["annotations"],
             "--features", paths["features"],
             "--human", str(human),
             "--output", str(out2)]
        )
        assert code == 0
        agreement = json.loads(out2.read_text())["agreement"]
        assert agreement["vset"] == 1.0
        assert agreement["n"] == 20

    @pytest.mark.parametrize("count", ["0", "2"])
    def test_pairs_empty_gt_subshots_exits_2_whatever_the_count(self, paths, tmp_path, capsys,
                                                                 count):
        empty = tmp_path / "empty.json"
        empty.write_text('{"video_id": "video12", "indices": []}')
        out = tmp_path / "o.json"
        code = main(["compare", "--mode", "pairs", "--annotations", paths["annotations"],
                     "--ground-truth", paths["ground_truth"], "--features", paths["features"],
                     "--gt-subshots", str(empty), "--count", count, "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "ground-truth selection is empty"}
        assert not out.exists()

    def test_pairs_missing_ground_truth_exits_2(self, paths, tmp_path):
        code = main(
            ["compare", "--mode", "pairs",
             "--annotations", paths["annotations"],
             "--output", str(tmp_path / "o.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("human", [False, True], ids=["no_human", "human"])
    @pytest.mark.parametrize("option,value,message", [
        ("--count", "-1", "cannot sample -1 pairs"),
        ("--n", "-3", "cannot sample -3 distinct indices from 12"),
    ], ids=["count", "n"])
    def test_negative_size_exits_2_naming_it(self, paths, tmp_path, capsys, option, value,
                                             message, human):
        out = tmp_path / "o.json"
        argv = ["compare", "--mode", "pairs", "--annotations", paths["annotations"],
                "--ground-truth", paths["ground_truth"], "--count", "3", "--n", "4",
                "--output", str(out)]
        argv[argv.index(option) + 1] = value
        if human:  # a file judging pair 0, which no negative --count samples
            (tmp_path / "h.json").write_text('{"judgments": [{"pair": 0, "verdict": "both_zero"}]}')
            argv += ["--human", str(tmp_path / "h.json")]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not out.exists()


@pytest.mark.parametrize("command, required", [
    ("evaluate", ["--annotations", "a", "--ground-truth", "g", "--summary", "s"]),
    ("features", ["--frames-dir", "d", "--video-id", "v"]),
    ("correlate", ["--scores-a", "a", "--scores-b", "b"]),
])
@pytest.mark.parametrize("option", ["--seed", "--stopwords"])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, command, required, option):
    """evaluate reads no seed, and features and correlate neither a seed nor stopwords."""
    out = tmp_path / "out.json"
    argv = [command, *required, option, "1", "--output", str(out)]
    if command == "evaluate" and option == "--stopwords":
        assert main(argv) == 2  # accepted, then refused for the missing input files
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not out.exists()


class TestCompareOptionsFitTheMode:
    """An option the mode would ignore is refused, naming it, before any file is read."""

    @pytest.mark.parametrize("mode, extra, named", [
        ("triples", ["--features", "f.json", "--ground-truth", "nope.json"], "--ground-truth"),
        ("triples", ["--features", "f.json", "--gt-subshots", "nope.json"], "--gt-subshots"),
        ("triples", ["--features", "f.json", "--metric", "rouge-2"], "--metric rouge-2"),
        ("triples", ["--features", "f.json", "--metric", "rouge-1"], "--metric rouge-1"),
        ("triples", [], "--features"),
        ("pairs", ["--ground-truth", "g.json", "--features", "f.json"], "--gt-subshots"),
        ("pairs", ["--ground-truth", "g.json", "--gt-subshots", "s.json"], "--features"),
        ("pairs", ["--features", "f.json", "--gt-subshots", "s.json"], "--ground-truth"),
    ])
    def test_refused_before_reading(self, tmp_path, capsys, mode, extra, named):
        out = tmp_path / "out.json"
        argv = ["compare", "--mode", mode, "--annotations", str(tmp_path / "missing.json"),
                *extra, "--output", str(out)]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CorpusError"  # not the CorpusIOError of the missing files
        assert named in error["message"] and f"{mode} mode" in error["message"]
        assert not out.exists()

    def test_triples_take_an_explicit_rouge_su(self, paths, tmp_path):
        outs = [tmp_path / "default.json", tmp_path / "explicit.json"]
        for out, extra in zip(outs, ([], ["--metric", "rouge-su"])):
            assert main(["compare", "--mode", "triples", "--annotations", paths["annotations"],
                         "--features", paths["features"], *extra, "--output", str(out)]) == 0
        default, explicit = (json.loads(out.read_text()) for out in outs)
        assert default.pop("config").pop("output") != explicit.pop("config").pop("output")
        assert default == explicit


class TestFeaturesBelongToVideo:
    """Every command that reads --features checks them against the annotations."""

    COMMANDS = {
        "summarize-cluster": ["summarize", "--method", "cluster", "--n", "4"],
        "summarize-mmr": ["summarize", "--method", "mmr", "--n", "4"],
        "compare-pairs": ["compare", "--mode", "pairs", "--count", "3", "--n", "4"],
        "compare-triples": ["compare", "--mode", "triples"],
    }

    @staticmethod
    def _bad_features(features12, tmp_path, kind):
        if kind == "video_id":
            bad = corpus.SubshotFeatures(
                video_id="OTHER",
                bins_per_channel=features12.bins_per_channel,
                subshots=features12.subshots,
            )
        else:
            bad = corpus.SubshotFeatures(
                video_id=features12.video_id,
                bins_per_channel=features12.bins_per_channel,
                subshots=features12.subshots * 2,
            )
        path = tmp_path / f"bad_{kind}.features.json"
        corpus.save_features(path, bad)
        return path

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", ["video_id", "subshots"])
    def test_mismatch_exits_2_naming_the_field(
        self, paths, features12, tmp_path, capsys, command, kind
    ):
        out = tmp_path / "out.json"
        argv = self.COMMANDS[command] + [
            "--annotations", paths["annotations"],
            "--features", str(self._bad_features(features12, tmp_path, kind)),
            "--output", str(out),
        ]
        if command != "compare-triples":  # triples mode refuses a ground truth
            argv += ["--ground-truth", paths["ground_truth"]]
        if command == "compare-pairs":  # pixel judgments need both pixel inputs
            argv += ["--gt-subshots", paths["summary"]]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CorpusValidationError"
        assert error["message"].startswith(f"{kind}: ")
        assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vtseval" in capsys.readouterr().out


def test_one_parser_per_process_sees_replaced_commands(monkeypatch, capsys):
    from vtseval import cli

    argv = ["correlate", "--scores-a", "a.json", "--scores-b", "b.json"]
    assert main(argv) == 2  # the files do not exist; this call builds the parser
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "_cmd_correlate", lambda args: seen.append(args.scores_a) or 0)
    assert main(argv) == 0
    assert seen == ["a.json"]
    assert cli._parser() is parser


INPUT_COMMANDS = {
    "evaluate": ["evaluate", "--ground-truth", "--summary"],
    "summarize-bow": ["summarize", "--method", "bow", "--n", "4", "--ground-truth"],
    "summarize-dp": ["summarize", "--method", "dp", "--n", "4", "--ground-truth"],
    "summarize-cluster": ["summarize", "--method", "cluster", "--n", "4", "--features"],
    "summarize-mmr": ["summarize", "--method", "mmr", "--n", "4", "--features"],
    "compare-pairs": ["compare", "--mode", "pairs", "--count", "3", "--n", "4",
                      "--ground-truth", "--features", "--gt-subshots"],
    "compare-triples": ["compare", "--mode", "triples", "--features"],
}
INPUT_FILES = {"--ground-truth": "ground_truth", "--summary": "summary",
               "--gt-subshots": "summary", "--features": "features"}


class TestInputsBelongToVideo:
    """Every input file of every command must be for the annotated video."""

    CASES = [(command, flag) for command, argv in sorted(INPUT_COMMANDS.items())
             for flag in argv if flag in INPUT_FILES]

    def argv(self, command, paths, relabelled):
        out = []
        for word in INPUT_COMMANDS[command]:
            out.append(word)
            if word in INPUT_FILES:
                out.append(relabelled.get(word, paths[INPUT_FILES[word]]))
        return out

    @pytest.mark.parametrize("command,flag", CASES)
    def test_other_video_exits_2_naming_video_id(self, paths, tmp_path, capsys, command, flag):
        with open(paths[INPUT_FILES[flag]], encoding="utf-8") as fh:
            data = json.load(fh)
        data["video_id"] = "OTHER"
        relabelled = tmp_path / "other.json"
        relabelled.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        argv = self.argv(command, paths, {flag: str(relabelled)})
        assert main(argv + ["--annotations", paths["annotations"], "--output", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["message"].startswith("video_id: ")
        assert str(relabelled) in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
    def test_matching_files_pass(self, paths, tmp_path, command):
        out = tmp_path / "out.json"
        argv = self.argv(command, paths, {})
        assert main(argv + ["--annotations", paths["annotations"], "--output", str(out)]) == 0
        assert out.exists()


class TestCompareHumanVerdicts:
    def run(self, paths, tmp_path, mode, rows):
        human = tmp_path / "human.json"
        human.write_text(json.dumps({"judgments": rows}))
        out = tmp_path / "out.json"
        argv = ["compare", "--mode", mode, "--annotations", paths["annotations"],
                "--features", paths["features"], "--human", str(human), "--output", str(out)]
        if mode == "pairs":
            argv += ["--ground-truth", paths["ground_truth"], "--gt-subshots", paths["summary"],
                     "--count", "5", "--n", "4", "--seed", "3"]
        code = main(argv)
        return code, json.loads(out.read_text()) if out.exists() else None

    def test_pairs_agreement_counts_the_judged_pairs(self, paths, tmp_path):
        code, data = self.run(paths, tmp_path, "pairs", [])
        assert code == 2 and data is None
        _, plain = self.run(paths, tmp_path, "pairs", [{"pair": 0, "verdict": "both_zero"}])
        rows = [{"pair": r["pair"], "verdict": r["vset"]["verdict"]} for r in plain["pairs"][:3]]
        code, data = self.run(paths, tmp_path, "pairs", rows)
        assert code == 0
        assert data["agreement"]["vset"] == 1.0
        assert data["agreement"]["n"] == 3
        pb_hits = sum(r["pb"]["verdict"] == r["vset"]["verdict"] for r in data["pairs"][:3])
        assert data["agreement"]["pb"] == pb_hits / 3

    def test_pairs_human_file_matching_no_pair_exits_2(self, paths, tmp_path, capsys):
        code, data = self.run(paths, tmp_path, "pairs", [{"pair": 99, "verdict": "both_zero"}])
        assert code == 2 and data is None
        assert "no judgments match" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("mode,row", [
        ("pairs", {"pair": 1, "verdict": "both_zero"}),
        ("triples", {"ref": 0, "x": 1, "y": 2, "verdict": "both_zero"}),
    ])
    def test_item_judged_twice_exits_2(self, paths, tmp_path, capsys, mode, row):
        code, data = self.run(paths, tmp_path, mode, [row, {**row, "verdict": "both_equal"}])
        assert code == 2 and data is None
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CorpusValidationError"
        assert "judgments[1]" in error["message"]

    @pytest.mark.parametrize("mode,valid,row", [
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 0, "x": 4, "y": 3}),  # x > y
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 5, "x": 5, "y": 6}),  # ref == x
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 6, "x": 5, "y": 6}),  # ref == y
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 0, "x": 3, "y": 3}),  # x == y
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 0, "x": 1, "y": 12}),  # y out of range
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 12, "x": 1, "y": 2}),  # ref out of range
        ("triples", {"ref": 0, "x": 1, "y": 2}, {"ref": 3, "x": -1, "y": 2}),  # negative
        ("pairs", {"pair": 0}, {"pair": 5}),  # --count 5 judges pairs 0..4
        ("pairs", {"pair": 0}, {"pair": -1}),
    ])
    def test_judgment_matching_nothing_exits_2(self, paths, tmp_path, capsys, mode, valid, row):
        rows = [{**valid, "verdict": "both_zero"}, {**row, "verdict": "both_zero"}]
        code, data = self.run(paths, tmp_path, mode, rows)
        assert code == 2 and data is None
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CorpusValidationError"
        assert "judgments[1]" in error["message"]

    @pytest.mark.parametrize("bad", [1.7, "3", True])
    def test_key_that_is_not_an_exact_int_exits_2(self, paths, tmp_path, capsys, bad):
        # int() would read these as pairs 1, 3 and 1, which the run judges
        rows = [{"pair": 0, "verdict": "both_zero"}, {"pair": bad, "verdict": "both_zero"}]
        code, data = self.run(paths, tmp_path, "pairs", rows)
        assert code == 2 and data is None
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "CorpusValidationError"
        assert error["message"].endswith(
            f"judgments[1].pair: expected int, got {type(bad).__name__}")

    def test_triples_file_with_unjudged_rows_names_the_first(self, paths, tmp_path, capsys):
        rows = [{"ref": r, "x": x, "y": y, "verdict": "both_zero"}
                for r, x, y in [(0, 1, 2), (0, 4, 3), (5, 5, 6), (0, 1, 99)]]
        code, data = self.run(paths, tmp_path, "triples", rows)
        assert code == 2 and data is None
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.endswith("judgments[1]: no judgments match ref=0, x=4, y=3")


# ---------------------------------------------------------------------------
# the shared unit table: one per thread, replaced only at a command's start


def text_commands(paths, out: Path, stops: Path | None = None) -> list[list[str]]:
    """Every text command on the fixture, each writing its own file under out."""
    tag, extra = ("custom", ["--stopwords", str(stops)]) if stops else ("bundled", [])
    base = ["--annotations", paths["annotations"], *extra]
    gt = [*base, "--ground-truth", paths["ground_truth"]]
    argvs = []
    for metric in ("rouge-su", "rouge-1", "rouge-2"):
        argvs.append(["evaluate", *gt, "--summary", paths["summary"], "--metric", metric])
        argvs.append(["compare", "--mode", "pairs", *gt, "--count", "5", "--n", "4",
                      "--metric", metric])
    argvs.append(["compare", "--mode", "triples", *base, "--features", paths["features"]])
    argvs += [["summarize", "--method", method, *gt, "--n", "4"] for method in ("bow", "dp")]
    return [argv + ["--output", str(out / f"{tag}{i}.json")] for i, argv in enumerate(argvs)]


def run_commands(argvs, budgets=None) -> list[bytes]:
    """The bytes each command writes, run in order in this thread under the given budgets."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        for i, argv in enumerate(argvs):
            if budgets is not None:
                mp.setattr(rouge, "TABLE_ENTRIES", budgets[i])
            assert main(argv) == 0, argv
            got.append(Path(argv[-1]).read_bytes())
    return got


FRESH = -1
"""A budget every table is past: each command takes a fresh table."""


@pytest.fixture
def taken(monkeypatch):
    """(thread name, table) of every table a command takes, in order."""
    tables = []

    def recording(stopwords=None):
        table = rouge.shared_table(stopwords)
        tables.append((threading.current_thread().name, table))
        return table

    monkeypatch.setattr(cli, "shared_table", recording)
    return tables


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_commands_write_the_same_bytes_through_shared_reset_and_fresh_tables(
    data_dir, tmp_path_factory, data
):
    paths = {key: str(data_dir / f"video12.{name}.json") for key, name in [
        ("annotations", "annotations"), ("ground_truth", "gts"),
        ("features", "features"), ("summary", "summary_a")]}
    out = tmp_path_factory.mktemp("run")
    stops = out / "stop.txt"
    stops.write_text("dog\ncoffee\nthe\n")
    argvs = data.draw(st.permutations(text_commands(paths, out) + text_commands(paths, out, stops)))
    shared = run_commands(argvs)
    assert run_commands(argvs, [data.draw(st.sampled_from([FRESH, 30, 300])) for _ in argvs]) == (
        shared)
    assert run_commands(argvs, [FRESH] * len(argvs)) == shared


def test_concurrent_commands_take_one_table_per_thread(paths, tmp_path, taken):
    argvs = {}
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        argvs[name] = text_commands(paths, tmp_path / name)
    want = {argv[-1]: got for name in argvs
            for argv, got in zip(argvs[name], run_commands(argvs[name]))}
    taken.clear()
    barrier = threading.Barrier(len(argvs))
    codes = {}

    def worker(name):
        barrier.wait(timeout=30)
        codes[name] = [main(argv) for argv in argvs[name] * 4]

    threads = [threading.Thread(target=worker, args=(name,), name=name) for name in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == {name: [0] * 4 * len(argvs[name]) for name in argvs}
    assert {out: Path(out).read_bytes() for out in want} == want
    tables = {name: {id(table) for who, table in taken if who == name} for name in argvs}
    assert all(len(ids) == 1 for ids in tables.values()), tables
    assert tables["a"] != tables["b"]


def test_alternating_stopword_sets_score_as_fresh_tables_of_each(paths, tmp_path, taken):
    stops = tmp_path / "stop.txt"
    stops.write_text("# not the bundled list\ndog\ncoffee\nthe\n")
    custom, bundled = text_commands(paths, tmp_path, stops), text_commands(paths, tmp_path)
    argvs = [argv for pair in zip(custom, bundled) for argv in pair]
    shared = run_commands(argvs)
    assert shared == run_commands(argvs, [FRESH] * len(argvs))
    # the sets score differently, so a table that kept the other set would show
    scores = [json.loads(got)["per_ground_truth"] for got in shared[:2]]
    assert scores[0] != scores[1]
    # each switch of set takes a new table; a file read again compares equal by content
    assert all(a is not b for (_, a), (_, b) in zip(taken, taken[1:len(argvs)]))
    taken.clear()
    run_commands(custom)
    assert len({id(table) for _, table in taken}) == 1


def test_a_command_past_the_budget_keeps_its_table_until_the_next(
    paths, tmp_path, taken, monkeypatch
):
    argvs = text_commands(paths, tmp_path)
    want = run_commands(argvs, [FRESH] * len(argvs))
    taken.clear()
    monkeypatch.setattr(rouge, "TABLE_ENTRIES", 10)
    for argv, expected in zip(argvs, want):
        assert main(argv) == 0
        assert Path(argv[-1]).read_bytes() == expected
        table = taken[-1][1]
        assert table.held > rouge.TABLE_ENTRIES
        assert rouge._slot.table is table  # not replaced inside the command
    assert all(a is not b for (_, a), (_, b) in zip(taken, taken[1:]))
