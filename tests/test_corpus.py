import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from silentspeech import corpus
from silentspeech.errors import DataError, NumericalError


def make_record(tmp_path, utt_id="u1", prompt="hello world", n_frames=10,
                mode="modal", split="train", with_labels=True, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.random((n_frames, 4, 6)).astype(np.float32)
    ult = f"{utt_id}.artf"
    corpus.write_frames(tmp_path / ult, frames)
    lab = None
    if with_labels:
        lab = f"{utt_id}.lab"
        corpus.write_labels(tmp_path / lab, rng.integers(0, 3, n_frames))
    return corpus.UtteranceRecord(
        utt_id=utt_id, speaker_id="spk1", session_id="s1", mode=mode,
        prompt=prompt, syllable_count=2, duration_s=n_frames / 20.0,
        ult_path=ult, vid_path=None, labels_path=lab, split=split,
        root=tmp_path,
    )


class TestFrameContainer:
    def test_round_trip_f32_bit_exact(self, tmp_path):
        frames = np.random.default_rng(1).random((5, 3, 7)).astype(np.float32)
        corpus.write_frames(tmp_path / "a.artf", frames)
        back = corpus.read_frames(tmp_path / "a.artf")
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), frames.view(np.uint32))

    def test_round_trip_u8(self, tmp_path):
        frames = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        corpus.write_frames(tmp_path / "b.artf", frames)
        assert np.array_equal(corpus.read_frames(tmp_path / "b.artf"), frames)

    @pytest.mark.parametrize("value", [300, -1])
    def test_out_of_u8_range_integers_rejected(self, tmp_path, value):
        """Left to astype, 300 would wrap to 44 and -1 to 255."""
        with pytest.raises(DataError, match=r"x\.artf: integer frame values .* 0\.\.255"):
            corpus.write_frames(tmp_path / "x.artf", np.array([[[value, 0, 255]]]))

    def test_u8_range_ends_round_trip(self, tmp_path):
        corpus.write_frames(tmp_path / "e.artf", np.array([[[0, 255, 7]]]))
        back = corpus.read_frames(tmp_path / "e.artf")
        assert back.dtype == np.uint8
        assert back.tolist() == [[[0, 255, 7]]]

    def test_header_is_16_bytes(self, tmp_path):
        corpus.write_frames(tmp_path / "c.artf", np.zeros((1, 2, 2), dtype=np.uint8))
        assert (tmp_path / "c.artf").stat().st_size == 16 + 4

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.artf").write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataError, match="magic"):
            corpus.read_frames(tmp_path / "bad.artf")

    @pytest.mark.parametrize("delta", [-5, -4, -1, 1, 4])
    def test_payload_size_mismatch_rejected(self, tmp_path, delta):
        """Short or long payloads, whole values or not, are checked against
        the header before anything is allocated."""
        corpus.write_frames(tmp_path / "p.artf", np.zeros((2, 3, 4), dtype=np.float32))
        raw = (tmp_path / "p.artf").read_bytes()
        (tmp_path / "p.artf").write_bytes(raw[:delta] if delta < 0 else raw + b"\0" * delta)
        with pytest.raises(DataError, match=rf"p\.artf: payload has {96 + delta} bytes, "
                                            r"header promises 24 values of 4 bytes"):
            corpus.read_frames(tmp_path / "p.artf")

    def test_huge_header_allocates_nothing(self, tmp_path):
        """A corrupt header promising 2^32 - 1 frames of 65535 x 65535 f32
        values is rejected by size, not by a failed allocation."""
        header = corpus._ARTF_HEADER.pack(corpus._ARTF_MAGIC, 1, 0xFFFF, 0xFFFF, 0xFFFFFFFF)
        (tmp_path / "huge.artf").write_bytes(header + b"\0" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="huge.artf: payload has 64 bytes"):
                corpus.read_frames(tmp_path / "huge.artf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        """A file that ends before the size it reported raises DataError."""
        corpus.write_frames(tmp_path / "s.artf", np.zeros((2, 3, 4), dtype=np.float32))
        size = (tmp_path / "s.artf").stat().st_size
        (tmp_path / "s.artf").write_bytes((tmp_path / "s.artf").read_bytes()[:-4])
        monkeypatch.setattr(corpus.os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
        with pytest.raises(DataError, match=r"s\.artf: file ended inside the payload"):
            corpus.read_frames(tmp_path / "s.artf")

    def test_read_holds_payload_once(self, tmp_path):
        """The payload is read into the array it is returned in: no bytes
        copy. A 200 x 128 x 256 f32 stack is 25 MiB."""
        path = tmp_path / "big.artf"
        corpus.write_frames(path, np.ones((200, 128, 256), dtype=np.float32))
        payload = 200 * 128 * 256 * 4
        tracemalloc.start()
        try:
            frames = corpus.read_frames(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frames.nbytes == payload and frames.min() == frames.max() == 1.0
        assert peak < 1.2 * payload

    def test_feature_round_trip(self, tmp_path):
        feats = np.random.default_rng(2).standard_normal((9, 5)).astype(np.float32)
        corpus.write_features(tmp_path / "f.artf", feats)
        assert np.allclose(corpus.read_features(tmp_path / "f.artf"), feats)

    def test_labels_round_trip(self, tmp_path):
        labs = np.array([0, 5, 65535, 3])
        corpus.write_labels(tmp_path / "l.lab", labs)
        assert np.array_equal(corpus.read_labels(tmp_path / "l.lab"), labs)

    def test_odd_label_byte_count_rejected(self, tmp_path):
        path = tmp_path / "odd.lab"
        path.write_bytes(b"\x01\x00\x02")
        with pytest.raises(DataError, match="odd.lab"):
            corpus.read_labels(path)


class TestManifest:
    def test_load_two_records(self, tmp_path):
        recs = [make_record(tmp_path, "u1", "a b", seed=1),
                make_record(tmp_path, "u2", "c d", seed=2)]
        man = corpus.Manifest(phones=["p0", "p1", "p2"], records=recs, root=tmp_path)
        corpus.save_manifest(man, tmp_path / "manifest.json")
        loaded = corpus.load_manifest(tmp_path / "manifest.json")
        assert len(loaded.records) == 2
        assert loaded.phones == ["p0", "p1", "p2"]

    def test_round_trip_structural_equality(self, tmp_path):
        recs = [make_record(tmp_path, f"u{i}", f"prompt {i}", seed=i) for i in range(3)]
        man = corpus.Manifest(phones=["p0", "p1", "p2"], records=recs, root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        loaded = corpus.load_manifest(tmp_path / "m.json")
        corpus.save_manifest(loaded, tmp_path / "m2.json")
        again = corpus.load_manifest(tmp_path / "m2.json")
        assert again == loaded
        for a, b in zip(loaded.records, again.records):
            assert np.array_equal(corpus.read_frames(a.root / a.ult_path),
                                  corpus.read_frames(b.root / b.ult_path))

    def test_record_keys_in_file_order(self, tmp_path):
        man = corpus.Manifest(phones=["p0"], records=[make_record(tmp_path)], root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert list(payload) == ["phones", "records"]
        assert list(payload["records"][0]) == [
            "id", "speaker", "session", "mode", "prompt", "syllables",
            "duration_s", "ult_path", "vid_path", "labels_path", "split"]

    def test_label_length_mismatch_rejected(self, tmp_path):
        rec = make_record(tmp_path, "u1", "a b", n_frames=10)
        corpus.write_labels(tmp_path / rec.labels_path, np.zeros(7, dtype=np.int64))
        man = corpus.Manifest(phones=["p0"], records=[rec], root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        with pytest.raises(DataError, match="labels"):
            corpus.load_manifest(tmp_path / "m.json")

    def test_missing_frame_file_rejected(self, tmp_path):
        rec = make_record(tmp_path, "u1", "a b")
        (tmp_path / rec.ult_path).unlink()
        man = corpus.Manifest(phones=["p0"], records=[rec], root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        with pytest.raises(DataError, match=r"u1: .*u1\.artf"):
            corpus.load_manifest(tmp_path / "m.json")

    def test_phone_labels(self, tmp_path):
        """A record reads its label file from its root; without one it has
        no labels."""
        rec = make_record(tmp_path, "u1", "a b", n_frames=4)
        corpus.write_labels(tmp_path / rec.labels_path, np.array([2, 0, 1, 1]))
        labels = rec.phone_labels()
        assert labels.dtype == np.int64
        assert labels.tolist() == [2, 0, 1, 1]
        assert make_record(tmp_path, "u2", "c d", with_labels=False).phone_labels() is None

    def test_parse_error_reports_line(self, tmp_path):
        (tmp_path / "m.json").write_text('{"phones": [,]}')
        with pytest.raises(DataError, match="line"):
            corpus.load_manifest(tmp_path / "m.json")

    def test_non_utf8_rejected(self, tmp_path):
        (tmp_path / "m.json").write_bytes(b'\xff{"phones": [], "records": []}')
        with pytest.raises(DataError, match=r"m\.json: not UTF-8 text .*byte 0"):
            corpus.load_manifest(tmp_path / "m.json")

    def test_odd_label_file_rejected(self, tmp_path):
        rec = make_record(tmp_path, "u1", "a b", n_frames=10)
        (tmp_path / rec.labels_path).write_bytes(bytes(21))
        man = corpus.Manifest(phones=["p0"], records=[rec], root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        with pytest.raises(DataError, match=r"u1\.lab.*odd byte count"):
            corpus.load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("payload, where", [
        ("5", "top level"),
        ('{"phones": [], "records": 7}', "'records'"),
        ('{"phones": [], "records": [1]}', "record 0"),
        ('{"phones": 3, "records": []}', "'phones'"),
        ('{"phones": [1, null, [2]], "records": []}', "phone 0 must be a string, got int"),
        ('{"phones": ["a", [2]], "records": []}', "phone 1 must be a string, got list"),
        ('{"phones": ["a", "b", "a"], "records": []}', "phone 2 \\('a'\\) repeats phone 0"),
        ('{"phones": [], "records": [{"id": "u1", "mode": "modal"}]}',
         "record 0 missing fields \\['speaker', 'session', 'prompt'"),
    ])
    def test_malformed_json_rejected(self, tmp_path, payload, where):
        (tmp_path / "m.json").write_text(payload)
        with pytest.raises(DataError, match=f"m\\.json: .*{where}"):
            corpus.load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("key, value, why", [
        ("prompt", ["a", "b"], "'prompt' must be a string, got list"),
        ("id", 7, "'id' must be a string, got int"),
        ("ult_path", 3, "'ult_path' must be a string or null, got int"),
        ("labels_path", {"f": 1}, "'labels_path' must be a string or null, got dict"),
        ("syllables", 2.7, "'syllables' must be an integer, got float"),
        ("syllables", True, "'syllables' must be an integer, got bool"),
        ("duration_s", "0.5", "'duration_s' must be a number, got str"),
        ("duration_s", False, "'duration_s' must be a number, got bool"),
        ("duration_s", math.inf, "positive and finite, got inf"),
        pytest.param("duration_s", 10 ** 400, "too large", id="duration_s-huge-int"),
        ("mode", "shouting", "u1: unknown mode"),
    ])
    def test_bad_field_value_rejected(self, tmp_path, key, value, why):
        man = corpus.Manifest(phones=["p0"], records=[make_record(tmp_path)], root=tmp_path)
        corpus.save_manifest(man, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["records"][0][key] = value
        (tmp_path / "m.json").write_text(json.dumps(payload))  # inf as Infinity
        with pytest.raises(DataError, match=f"m\\.json: record 0.*{why}"):
            corpus.load_manifest(tmp_path / "m.json")


class TestNormalize:
    def test_two_pixel_example(self):
        mean, std, normed = corpus.normalize([np.array([[1.0, 3.0]])])
        assert mean == 2.0 and std == 1.0
        assert np.allclose(normed[0], [[-1.0, 1.0]])

    def test_heldout_application_is_affine(self):
        mean, std, _ = corpus.normalize([np.array([[1.0, 3.0]])])
        x = np.array([[7.0]])
        assert corpus.apply_normalization(x, mean, std)[0, 0] == (7.0 - mean) / std

    def test_large_corpus_moments(self):
        rng = np.random.default_rng(6)
        seqs = [rng.random((20, 8, 8)) * 5 + 2 for _ in range(10)]
        _, _, normed = corpus.normalize(seqs)
        flat = np.concatenate([s.ravel() for s in normed])
        assert abs(flat.mean()) < 1e-6
        assert abs(flat.var() - 1.0) < 1e-4

    def test_constant_training_set_rejected(self):
        with pytest.raises(NumericalError):
            corpus.normalize([np.ones((3, 2, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        frames = np.random.default_rng(7).random((3, 4, 4))
        frames[1, 2, 3] = bad
        with pytest.raises(DataError, match="NaN or inf"):
            corpus.normalize([np.ones((2, 4, 4)), frames])

    @pytest.mark.parametrize("mean, std", [(0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0),
                                           (0.0, np.inf), (0.0, 0.0), (0.0, -2.0)])
    def test_bad_statistics_rejected(self, mean, std):
        """A NaN or infinite statistic, a zero std and a negative std each
        raise DataError naming both values, instead of NaN, infinite,
        divide-warning or sign-flipped frames."""
        with pytest.raises(DataError, match=f"mean={mean}, std={std}$"):
            corpus.apply_normalization(np.ones((2, 3, 3)), mean, std)


class TestWindowing:
    def test_interior_anchor_indices(self):
        frames = np.arange(25)[:, None, None] * np.ones((1, 2, 2))
        got = corpus.window_stack(frames)[12, :, 0, 0]
        assert np.array_equal(got, [0, 4, 8, 12, 16, 20, 24])

    def test_left_clamping(self):
        frames = np.arange(25)[:, None, None] * np.ones((1, 1, 1))
        got = corpus.window_stack(frames)[0, :, 0, 0]
        assert np.array_equal(got, [0, 0, 0, 0, 4, 8, 12])

    def test_single_frame_sequence(self):
        frames = np.full((1, 3, 3), 2.0)
        samples = corpus.window_stack(frames)
        assert samples.shape[0] == 1
        assert np.allclose(samples[0], 2.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 13, 30])
    def test_one_sample_per_frame(self, n):
        frames = np.random.default_rng(n).random((n, 2, 2))
        assert corpus.window_stack(frames).shape[0] == n

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 7, 13, 25, 30])
    def test_matches_clamped_index_reference(self, n, dtype):
        """Every window equals the frames picked by clamped anchor + offset
        indices, for sequences shorter and longer than a window's span."""
        frames = (np.random.default_rng(n).random((n, 3, 5)) * 255).astype(dtype)
        ref = frames[np.clip(np.arange(n)[:, None] + corpus.WINDOW_OFFSETS, 0, n - 1)]
        got = corpus.window_stack(frames)
        assert got.dtype == dtype
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_result_is_read_only(self):
        """The windows share memory, so a write into one would show up in
        up to six others; the view refuses it."""
        samples = corpus.window_stack(np.zeros((5, 2, 2)))
        with pytest.raises(ValueError):
            samples[2, 3] = 1.0

    def test_one_padded_copy(self):
        """Windowing 64 float64 frames of 64 x 128 allocates one padded copy
        of n + 24 frames, not the 7 n frames (448, 28 MiB) of a copy per
        window channel."""
        n = 64
        frames = np.random.default_rng(3).random((n, 64, 128))
        tracemalloc.start()
        try:
            corpus.window_stack(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + 24) * frames[0].nbytes


class TestSplit:
    def _manifest(self, tmp_path, n=10):
        recs = [make_record(tmp_path, f"u{i}", f"prompt {i % 5}", seed=i,
                            with_labels=False) for i in range(n)]
        return corpus.Manifest(phones=["p0"], records=recs, root=tmp_path)

    def test_matching_prompts_go_to_test(self, tmp_path):
        man = self._manifest(tmp_path)
        out = corpus.split_prompt_disjoint(man, {"prompt 0", "prompt 1", "prompt 2"}, seed=0)
        assert all(r.root == tmp_path for r in out.records)
        for r in out.records:
            if r.prompt in {"prompt 0", "prompt 1", "prompt 2"}:
                assert r.split == "test"
            else:
                assert r.split in ("train", "validation")

    def test_disjoint_test_prompts_leave_all_in_train(self, tmp_path):
        man = self._manifest(tmp_path)
        out = corpus.split_prompt_disjoint(man, {"unseen"}, val_fraction=0.0, seed=0)
        assert all(r.split == "train" for r in out.records)

    def test_prompt_disjointness_over_seeds(self, tmp_path):
        man = self._manifest(tmp_path, n=20)
        for seed in range(100):
            out = corpus.split_prompt_disjoint(man, {"prompt 1", "prompt 3"},
                                               val_fraction=0.25, seed=seed)
            assert not (out.prompts("train") & out.prompts("test"))

    def test_empty_train_rejected(self, tmp_path):
        man = self._manifest(tmp_path, n=4)
        with pytest.raises(DataError):
            corpus.split_prompt_disjoint(
                man, {f"prompt {i}" for i in range(5)}, seed=0)
