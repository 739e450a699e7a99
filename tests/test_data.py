"""Manifest parsing, preprocessing, corpus round-trips, and the synthetic generator."""

import csv
import re

import numpy as np
import pytest

from bcfusion.data import (CorpusError, RawSample, SampleDescriptor, SynthSpec,
                           load_corpus, load_manifest, load_sample_features, preprocess,
                           read_matrix_csv, synth_generate, write_matrix_csv)


def write_corpus(tmp_path, rows, face_dim=6, pose_dim=4, t=12, seed=0):
    """Lay down a tiny corpus; rows are (id, fps, label, split)."""
    rng = np.random.default_rng(seed)
    lines = [["id", "face_path", "pose_path", "fps", "label", "split"]]
    for sid, fps, label, split in rows:
        face = rng.normal(size=(t, face_dim))
        pose = rng.normal(size=(t, pose_dim))
        write_matrix_csv(tmp_path / f"{sid}_face.csv", face)
        write_matrix_csv(tmp_path / f"{sid}_pose.csv", pose)
        lines.append([sid, f"{sid}_face.csv", f"{sid}_pose.csv", str(fps), str(label), split])
    manifest = tmp_path / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    return manifest


def add_byte_order_mark(path):
    """Prefix ``path`` with the UTF-8 byte-order mark of a spreadsheet "CSV UTF-8" export."""
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


class TestMatrixCsv:
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "byte_order_mark"])
    def test_write_read_round_trip_exact(self, tmp_path, bom):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((13, 7)) * 10.0 ** rng.integers(-6, 6, (13, 7)).astype(float)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, arr)
        if bom:
            add_byte_order_mark(path)
        np.testing.assert_array_equal(read_matrix_csv(path), arr)

    def test_edge_values_keep_their_bytes_and_round_trip_bitwise(self, tmp_path):
        edges = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
        arr = np.array([edges, [-v for v in edges], edges[::-1]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, arr)
        # the per-value formula the row format replaced
        expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in arr)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_matrix_csv(path).tobytes() == arr.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value_naming_row(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n3,4\n5,{value}\n")
        with pytest.raises(CorpusError, match=rf"{path}: row 3: non-finite"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_has_no_data_rows(self, tmp_path, text, recwarn):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"^{path}: no data rows$"):
            read_matrix_csv(path)
        assert not recwarn.list

    @pytest.mark.parametrize("text, line", [
        ("1,2\n\n3,4\nnan,5\n", 2), ("1,2\n#3,4\n5,6\n", 2), ("\n1,2\n", 1),
        ("1,2\n3,4\n   \n5,6\n", 3), ("# header\n1,2\n", 1),
    ], ids=["blank", "comment", "leading_blank", "whitespace", "leading_comment"])
    def test_rejects_blank_or_comment_line_inside_the_data(self, tmp_path, text, line):
        # rows are file lines: a skipped line would shift every later row number, and a
        # '#'-led line would drop a row unseen
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"^{path}: row {line}: blank or '#' line "):
            read_matrix_csv(path)

    def test_trailing_blank_lines_end_the_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n\n  \n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1, 2], [3, 4]])

    def test_crlf_line_ends_keep_rows_on_file_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\r\n3,4\r\n5,6\r\nnan,5\r\n")
        with pytest.raises(CorpusError, match=rf"^{path}: row 4: non-finite value$"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, problem", [
        ("1,2\n3,x\n", "unreadable numeric data '3,x'"),
        ("1,2\n3\n", "1 columns where row 1 has 2"),
    ], ids=["bad_value", "column_count"])
    def test_unparsable_data_names_its_file_line(self, tmp_path, text, problem):
        # one row number for both faults, the file line, and none of numpy's own text
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"^{path}: row 2: {problem}$"):
            read_matrix_csv(path)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(CorpusError):
            write_matrix_csv(tmp_path / "x.csv", np.zeros(3))


class TestLoadManifest:
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "byte_order_mark"])
    def test_descriptors_in_file_order(self, tmp_path, bom):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train"), ("b", 30, 0, "validation"),
                                           ("c", 30, 1, "test")])
        if bom:
            add_byte_order_mark(manifest)
        descs = load_manifest(manifest)
        assert [d.id for d in descs] == ["a", "b", "c"]
        assert descs[0].face_path.exists()

    def test_detection_label_domain_enforced(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1.5, "train")])
        with pytest.raises(CorpusError, match="row 2"):
            load_manifest(manifest, task="detection")
        # the same label is fine when no task is given or for agreement... but
        # 1.5 violates the agreement range as well
        with pytest.raises(CorpusError):
            load_manifest(manifest, task="agreement")
        assert load_manifest(manifest)[0].label == 1.5

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train")])
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_manifest(manifest)

    def test_missing_sample_file_raises_file_error(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train")])
        (tmp_path / "a_pose.csv").unlink()
        with pytest.raises(FileNotFoundError):
            load_manifest(manifest)

    def test_split_counts_match_line_counts(self, tmp_path):
        rows = [(f"s{i}", 30, i % 2, "train" if i < 5 else "validation") for i in range(8)]
        manifest = write_corpus(tmp_path, rows)
        descs = load_manifest(manifest)
        by_split = {"train": 0, "validation": 0}
        for d in descs:
            by_split[d.split] += 1
        # independent oracle: count split tokens straight off the file's lines
        raw = manifest.read_text().splitlines()[1:]
        assert by_split["train"] == sum(1 for line in raw if line.endswith(",train"))
        assert by_split["validation"] == sum(1 for line in raw if line.endswith(",validation"))

    def test_bad_header_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,face,pose\n")
        with pytest.raises(CorpusError, match="header"):
            load_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.csv")


class TestLoadSampleFeatures:
    def test_loads_frame_counts(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train")], t=300, face_dim=6, pose_dim=4)
        raw = load_sample_features(load_manifest(manifest)[0], face_dim=6, pose_dim=4)
        assert raw.face_frames.shape == (300, 6)
        assert raw.pose_frames.shape == (300, 4)

    def test_unequal_lengths_truncate_with_warning(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train")], t=300, face_dim=6, pose_dim=4)
        pose = read_matrix_csv(tmp_path / "a_pose.csv")
        write_matrix_csv(tmp_path / "a_pose.csv", pose[:299])
        with pytest.warns(UserWarning, match="truncating"):
            raw = load_sample_features(load_manifest(manifest)[0], face_dim=6, pose_dim=4)
        assert raw.face_frames.shape[0] == raw.pose_frames.shape[0] == 299

    def test_column_mismatch_cites_expected_and_actual(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", 30, 1, "train")], face_dim=5)
        with pytest.raises(CorpusError, match="expected 6.*got 5"):
            load_sample_features(load_manifest(manifest)[0], face_dim=6, pose_dim=4)


def make_raw(face, pose, fps=30.0, label=1.0):
    return RawSample("r", np.asarray(face, float), np.asarray(pose, float), fps, label, "train")


class TestPreprocess:
    def test_constant_recording_gives_zero_features(self):
        face = np.full((100, 3), 2.5)
        pose = np.full((100, 2), -1.0)
        out = preprocess(make_raw(face, pose), window_seconds=3.0)
        np.testing.assert_array_equal(out.face_seq[:, :-1], 0.0)
        np.testing.assert_array_equal(out.pose_seq[:, :-1], 0.0)
        assert np.all(np.diff(out.face_seq[:, -1]) > 0)

    def test_window_length(self):
        face = np.zeros((120, 3))
        pose = np.zeros((120, 2))
        out = preprocess(make_raw(face, pose, fps=30.0), window_seconds=3.0)
        assert out.face_seq.shape == (89, 4)
        assert out.pose_seq.shape == (89, 3)

    def test_matches_elementwise_diff_oracle(self):
        rng = np.random.default_rng(1)
        face = rng.normal(size=(40, 5))
        pose = rng.normal(size=(40, 3))
        out = preprocess(make_raw(face, pose, fps=10.0), window_seconds=3.0)
        tail = face[-30:]
        expected = np.zeros((29, 5))
        for t in range(29):
            for j in range(5):
                expected[t, j] = abs(tail[t + 1, j] - tail[t, j])
        np.testing.assert_allclose(out.face_seq[:, :-1], expected, atol=0)

    def test_uses_last_window(self):
        face = np.vstack([np.zeros((50, 2)), np.ones((30, 2))])
        out = preprocess(make_raw(face, np.zeros((80, 2)), fps=10.0), window_seconds=3.0)
        # window covers exactly the constant tail: all diffs zero
        np.testing.assert_array_equal(out.face_seq[:, :-1], 0.0)

    def test_nonnegative_and_length_property(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = int(rng.integers(10, 40))
            face = rng.normal(size=(t, 3))
            pose = rng.normal(size=(t, 2))
            fps = float(rng.integers(2, 8))
            out = preprocess(make_raw(face, pose, fps=fps), window_seconds=1.0)
            win = int(round(fps))
            assert out.face_seq.shape[0] == win - 1
            assert np.all(out.face_seq >= 0.0) and np.all(out.pose_seq >= 0.0)

    @pytest.mark.parametrize("fps, needs", [(30.0, "90"), (1e300, "3e+300")])
    def test_window_longer_than_recording_rejected(self, fps, needs):
        # a huge but finite frame count is shown in short form, not with all its digits
        with pytest.raises(CorpusError, match=rf"^sample r: recording has 10 frames, "
                                              rf"window needs {re.escape(needs)}$"):
            preprocess(make_raw(np.zeros((10, 2)), np.zeros((10, 2)), fps=fps), 3.0)

    def test_overflowing_difference_names_sample_modality_and_file_rows(self, recwarn):
        # finite frames 1.5e308 apart from -1.5e308: 0-based frames 36 and 37 of 40 are file
        # rows 37 and 38, inside the last 30-frame window; no overflow warning escapes
        pose = np.zeros((40, 2))
        pose[36, 1], pose[37, 1] = 1.5e308, -1.5e308
        with pytest.raises(CorpusError, match=r"^sample r: pose rows 37-38: difference "
                                              r"of consecutive frames is not finite$"):
            preprocess(make_raw(np.zeros((40, 3)), pose, fps=10.0), window_seconds=3.0)
        assert not recwarn.list


class TestSynthGenerate:
    def test_fixed_seed_is_bitwise_reproducible(self, tmp_path):
        spec = SynthSpec(n_samples=8, t_raw=15, fps=5.0, kind="redundant", seed=11,
                         face_dim=4, pose_dim=3)
        m1 = synth_generate(spec, tmp_path / "a")
        m2 = synth_generate(spec, tmp_path / "b")
        assert m1.read_text() == m2.read_text()
        for f1 in sorted((tmp_path / "a").iterdir()):
            f2 = tmp_path / "b" / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_detection_corpus_is_class_balanced(self, tmp_path):
        spec = SynthSpec(n_samples=100, t_raw=15, fps=5.0, kind="redundant", seed=2,
                         face_dim=4, pose_dim=3)
        descs = load_manifest(synth_generate(spec, tmp_path / "c"), task="detection")
        labels = [d.label for d in descs]
        assert len(labels) == 100 and sum(labels) == 50

    def test_xor_corpus_is_class_balanced_per_split(self, tmp_path):
        spec = SynthSpec(n_samples=40, t_raw=15, fps=5.0, kind="xor-cross-modal", seed=3,
                         face_dim=4, pose_dim=3, val_frac=0.2)
        descs = load_manifest(synth_generate(spec, tmp_path / "x"), task="detection")
        for split in ("train", "validation"):
            labels = [d.label for d in descs if d.split == split]
            assert sum(labels) == len(labels) / 2

    def test_single_modality_leaves_other_stream_silent(self, tmp_path):
        spec = SynthSpec(n_samples=10, t_raw=15, fps=5.0, kind="single-modality",
                         modality="face", seed=4, face_dim=4, pose_dim=3, noise=0.0)
        corpus = load_corpus(synth_generate(spec, tmp_path / "s"), "detection",
                             window_seconds=3.0, face_dim=4, pose_dim=3)
        for sample in corpus["train"]:
            # zero noise: pose movement is identically zero for every sample
            assert np.allclose(sample.pose_seq[:, :-1], 0.0)

    def test_xor_single_modality_threshold_classifier_near_chance(self, tmp_path):
        spec = SynthSpec(n_samples=1000, t_raw=10, fps=3.0, kind="xor-cross-modal",
                         seed=5, face_dim=3, pose_dim=2, val_frac=0.0)
        corpus = load_corpus(synth_generate(spec, tmp_path / "big"), "detection",
                             window_seconds=3.0, face_dim=3, pose_dim=2)
        samples = corpus["train"]
        labels = np.array([s.label for s in samples])

        def best_threshold_accuracy(values):
            """Brute-force sweep over thresholds and both polarities."""
            order = np.sort(np.unique(values))
            cuts = np.concatenate([[order[0] - 1], (order[1:] + order[:-1]) / 2,
                                   [order[-1] + 1]])
            best = 0.0
            for cut in cuts:
                above = values > cut
                acc = max(np.mean(above == labels), np.mean(~above == labels))
                best = max(best, acc)
            return best

        for attr in ("face_seq", "pose_seq"):
            seqs = np.stack([getattr(s, attr)[:, :-1] for s in samples])
            per_feature_energy = seqs.mean(axis=1)  # mean movement per feature
            worst = max(best_threshold_accuracy(per_feature_energy[:, j])
                        for j in range(per_feature_energy.shape[1]))
            assert worst <= 0.6, f"{attr}: single-feature classifier reached {worst}"

    def test_spec_validation(self):
        with pytest.raises(CorpusError):
            SynthSpec(n_samples=1).validate()
        with pytest.raises(CorpusError):
            SynthSpec(kind="nope").validate()
        with pytest.raises(CorpusError):
            SynthSpec(n_samples=10, kind="xor-cross-modal").validate()
        with pytest.raises(CorpusError):
            SynthSpec(val_frac=0.8, test_frac=0.4).validate()

    def test_corpus_loads_end_to_end(self, tmp_path):
        spec = SynthSpec(n_samples=8, t_raw=15, fps=5.0, kind="redundant", seed=6,
                         face_dim=4, pose_dim=3, val_frac=0.25)
        corpus = load_corpus(synth_generate(spec, tmp_path / "e"), "detection",
                             window_seconds=3.0, face_dim=4, pose_dim=3)
        assert len(corpus["train"]) == 6 and len(corpus["validation"]) == 2
        sample = corpus["train"][0]
        assert sample.face_seq.shape == (14, 5)
        assert sample.pose_seq.shape == (14, 4)

    def test_agreement_labels_in_range(self, tmp_path):
        spec = SynthSpec(n_samples=30, t_raw=15, fps=5.0, kind="redundant", seed=7,
                         task="agreement", face_dim=4, pose_dim=3)
        descs = load_manifest(synth_generate(spec, tmp_path / "r"), task="agreement")
        assert all(-1.0 <= d.label <= 1.0 for d in descs)
