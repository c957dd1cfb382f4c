import dataclasses
import math

import numpy as np
import pytest

from silentspeech import articspace, corpus, featnet, recognizer, stats
from silentspeech.errors import DataError, SilentSpeechError, UsageError

TINY = featnet.FeatNetConfig(input_shape=(1, 8, 8), conv_kernel=2, conv_filters=(2, 3),
                             fc_dims=(8, 6, 4, 6), n_classes=2)
X = np.zeros((2, *TINY.input_shape))
Y = np.zeros(2, dtype=int)
POINTS = np.random.default_rng(0).random((10, 2))
LEXICON = recognizer.Lexicon(["p0", "p1"], {"ab": (0, 1), "ba": (1, 0)})
LM = recognizer.train_bigram([["ab", "ba"]], LEXICON.words)
RAGGED = [[0.0, 1.0], [1.0]]  # no array: numpy raises a bare ValueError for it
RAGGED_BATCH = [np.zeros(TINY.input_shape), np.zeros((1, 8, 7))]
NOT_NUMBERS = "must be a rectangular array of numbers"

# every argument check of the public API, each with an argument it rejects
BAD_CALLS = {
    "FeatNetConfig-lr-zero": lambda: dataclasses.replace(TINY, lr=0.0),
    "FeatNetConfig-lr-negative": lambda: dataclasses.replace(TINY, lr=-0.1),
    "FeatNetConfig-lr-nan": lambda: dataclasses.replace(TINY, lr=math.nan),
    "FeatNetConfig-lr-inf": lambda: dataclasses.replace(TINY, lr=math.inf),
    "FeatNetConfig-batch-zero": lambda: dataclasses.replace(TINY, batch_size=0),
    "FeatNetConfig-batch-negative": lambda: dataclasses.replace(TINY, batch_size=-1),
    "FeatNetConfig-l2-negative": lambda: dataclasses.replace(TINY, l2_weight=-0.1),
    "FeatNetConfig-l2-nan": lambda: dataclasses.replace(TINY, l2_weight=math.nan),
    "FeatNetConfig-l2-inf": lambda: dataclasses.replace(TINY, l2_weight=math.inf),
    "FeatNetConfig-kernel": lambda: dataclasses.replace(TINY, conv_kernel=0),
    "FeatNetConfig-filters-1": lambda: dataclasses.replace(TINY, conv_filters=(0, 3)),
    "FeatNetConfig-filters-2": lambda: dataclasses.replace(TINY, conv_filters=(2, 0)),
    "FeatNetConfig-fc-dims": lambda: dataclasses.replace(TINY, fc_dims=(8, 6, 0, 6)),
    "FeatNetConfig-fc-count": lambda: dataclasses.replace(TINY, fc_dims=(8, 6, 4)),
    "FeatNetConfig-classes": lambda: dataclasses.replace(TINY, n_classes=1),
    "FeatNetConfig-input-shape": lambda: dataclasses.replace(TINY, input_shape=(0, 8, 8)),
    "FeatNetConfig-collapse": lambda: dataclasses.replace(TINY, input_shape=(1, 4, 4)),
    "FeatNetConfig-input-shape-length": lambda: dataclasses.replace(TINY, input_shape=(8, 8)),
    "FeatNetConfig-filters-one": lambda: dataclasses.replace(TINY, conv_filters=(2,)),
    "FeatNetConfig-filters-three": lambda: dataclasses.replace(TINY, conv_filters=(2, 3, 4)),
    "FeatNetConfig-kernel-float": lambda: dataclasses.replace(TINY, conv_kernel=2.5),
    "FeatNetConfig-kernel-bool": lambda: dataclasses.replace(TINY, conv_kernel=True),
    "FeatNetConfig-classes-float": lambda: dataclasses.replace(TINY, n_classes=3.5),
    "FeatNetConfig-fc-dims-float": lambda: dataclasses.replace(TINY, fc_dims=(8, 6, 4, 6.5)),
    "FeatNetConfig-batch-float": lambda: dataclasses.replace(TINY, batch_size=2.5),
    "FeatNetConfig-input-shape-int": lambda: dataclasses.replace(TINY, input_shape=8),
    "FeatNetConfig-fc-dims-int": lambda: dataclasses.replace(TINY, fc_dims=5),
    "FeatNetConfig-filters-none": lambda: dataclasses.replace(TINY, conv_filters=None),
    "FeatNetConfig-input-shape-list": lambda: dataclasses.replace(TINY, input_shape=[1, 8, 8]),
    "FeatNetConfig-lr-string": lambda: dataclasses.replace(TINY, lr="0.1"),
    "FeatNetConfig-lr-bool": lambda: dataclasses.replace(TINY, lr=True),
    "FeatNetConfig-l2-string": lambda: dataclasses.replace(TINY, l2_weight="0"),
    "FeatNetConfig-lr-huge-int": lambda: dataclasses.replace(TINY, lr=10 ** 400),
    "FeatNetConfig-seed-float": lambda: dataclasses.replace(TINY, seed=1.5),
    "FeatNetConfig-seed-negative": lambda: dataclasses.replace(TINY, seed=-1),
    "FeatNetConfig-seed-bool": lambda: dataclasses.replace(TINY, seed=True),
    "train_sgd-epochs": lambda: featnet.train_sgd(featnet.init_params(TINY), X, Y, X, Y,
                                                  epochs=0),
    "train_sgd-epochs-float": lambda: featnet.train_sgd(featnet.init_params(TINY), X, Y, X, Y,
                                                        epochs=1.5),
    "train_sgd-epochs-bool": lambda: featnet.train_sgd(featnet.init_params(TINY), X, Y, X, Y,
                                                       epochs=True),
    "extract_bottleneck-chunk": lambda: featnet.extract_bottleneck(
        featnet.init_params(TINY), np.zeros((3, 8, 8)), chunk=0),
    "extract_bottleneck-chunk-float": lambda: featnet.extract_bottleneck(
        featnet.init_params(TINY), np.zeros((3, 8, 8)), chunk=2.5),
    "extract_bottleneck-chunk-bool": lambda: featnet.extract_bottleneck(
        featnet.init_params(TINY), np.zeros((3, 8, 8)), chunk=True),
    "fit_iforest-seed-negative": lambda: articspace.fit_iforest(POINTS, seed=-1),
    "fit_iforest-seed-float": lambda: articspace.fit_iforest(POINTS, seed=1.5),
    "prune_outliers-contamination": lambda: articspace.prune_outliers(
        articspace.ContourCloud("s0", "modal", POINTS), contamination=0.5),
    "prune_outliers-contamination-string": lambda: articspace.prune_outliers(
        articspace.ContourCloud("s0", "modal", POINTS), contamination="0.1"),
    "prune_outliers-seed-negative": lambda: articspace.prune_outliers(
        articspace.ContourCloud("s0", "modal", POINTS), contamination=0.0, seed=-1),
    "prune_outliers-seed-float": lambda: articspace.prune_outliers(
        articspace.ContourCloud("s0", "modal", POINTS), contamination=0.2, seed=1.5),
    "gradient_check-coords-zero": lambda: featnet.gradient_check(featnet.init_params(TINY),
                                                                 X, Y, n_coords=0),
    "gradient_check-coords-negative": lambda: featnet.gradient_check(featnet.init_params(TINY),
                                                                     X, Y, n_coords=-1),
    "betainc-a": lambda: stats.betainc(0.0, 1.0, 0.5),
    "student_t_sf-t": lambda: stats.student_t_sf(np.inf, 3),
    "student_t_sf-df": lambda: stats.student_t_sf(1.0, 0),
    "student_t_sf-df-nan": lambda: stats.student_t_sf(1.0, math.nan),
    "holm_bonferroni-empty": lambda: stats.holm_bonferroni([]),
    "holm_bonferroni-p": lambda: stats.holm_bonferroni([1.5]),
    "split_prompt_disjoint-prompts": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), set()),
    "split_prompt_disjoint-prompts-string": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), "p1"),
    "split_prompt_disjoint-val-negative": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), {"p"}, val_fraction=-0.3),
    "split_prompt_disjoint-val-one": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), {"p"}, val_fraction=1.0),
    "split_prompt_disjoint-val-string": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), {"p"}, val_fraction="0.1"),
    "split_prompt_disjoint-seed-negative": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), {"p"}, seed=-1),
    "split_prompt_disjoint-seed-float": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), {"p"}, seed=1.5),
    "wer-string-reference": lambda: recognizer.wer([("a b", ["a", "b"])]),
    "wer-string-hypothesis": lambda: recognizer.wer([(["a", "b"], "a b")]),
    "wer-none-hypothesis": lambda: recognizer.wer([(["a"], None)]),
    "wer-number-word": lambda: recognizer.wer([(["a", 1], ["a"])]),
    "train_bigram-vocab-string": lambda: recognizer.train_bigram([["a"]], "abc"),
    "train_bigram-sentence-string": lambda: recognizer.train_bigram(["ab"], ["a", "b"]),
    "wer-one-member-pair": lambda: recognizer.wer([(["a"],)]),
    "wer-number": lambda: recognizer.wer(3),
    "phones_for-string": lambda: LEXICON.phones_for("ab ba"),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_argument_check_raises_toolkit_error(name):
    """A rejected argument raises UsageError: a SilentSpeechError, and a
    ValueError for callers that catch the builtin."""
    with pytest.raises(SilentSpeechError) as info:
        BAD_CALLS[name]()
    assert type(info.value) is UsageError
    assert isinstance(info.value, ValueError)


def record(**changes):
    """An UtteranceRecord without files, with ``changes`` applied."""
    fields = dict(utt_id="u1", speaker_id="s1", session_id="t1", mode="modal", prompt="p",
                  syllable_count=1, duration_s=1.0, ult_path=None, vid_path=None,
                  labels_path=None, split="train")
    return corpus.UtteranceRecord(**{**fields, **changes})


def write_bytes(path, raw):
    path.write_bytes(raw)
    return path


def write_frames(path, frames):
    corpus.write_frames(path, frames)
    return path


def write_manifest(path, manifest):
    corpus.save_manifest(manifest, path)
    return path


def lexicon_edited_to(word, phones):
    """A one-word lexicon whose entry is replaced after construction, past
    the checks of ``Lexicon.__post_init__``, so that decode's own check of
    phone indices is the one that runs."""
    lexicon = recognizer.Lexicon(["p0", "p1"], {word: (0,)})
    lexicon.entries[word] = phones
    return lexicon


# data checks of the public API, each with input it rejects and the message
# expected; every row gets a fresh directory for the files it needs
BAD_DATA = {
    "write_frames-2d": (lambda d: corpus.write_frames(d / "f.artf", np.zeros((2, 3))),
                        r"non-empty \(n, h, w\)"),
    "write_frames-complex": (lambda d: corpus.write_frames(d / "f.artf",
                                                           np.zeros((1, 2, 2), complex)),
                             "unsupported frame dtype complex"),
    "write_frames-width": (lambda d: corpus.write_frames(d / "f.artf",
                                                         np.zeros((1, 1, 0x10000), np.uint8)),
                           "exceeds u16 header range"),
    "read_frames-truncated-header": (
        lambda d: corpus.read_frames(write_bytes(d / "f.artf", b"ARTF\x01")),
        "f.artf: truncated frame header"),
    "read_frames-dtype-code": (
        lambda d: corpus.read_frames(write_bytes(
            d / "f.artf", corpus._ARTF_HEADER.pack(corpus._ARTF_MAGIC, 7, 1, 1, 1))),
        "f.artf: unknown dtype code 7"),
    "write_features-3d": (lambda d: corpus.write_features(d / "f.artf", np.zeros((2, 3, 4))),
                          r"features must be \(n, d\)"),
    "read_features-height": (
        lambda d: corpus.read_features(write_frames(d / "f.artf", np.zeros((3, 2, 4)))),
        "f.artf: expected height-1 feature frames"),
    "write_labels-2d": (lambda d: corpus.write_labels(d / "l.lab", np.zeros((2, 2), int)),
                        "labels must be 1-D"),
    "write_labels-range": (lambda d: corpus.write_labels(d / "l.lab", np.array([3, 70_000])),
                           "out of u16 range"),
    "write_labels-float": (lambda d: corpus.write_labels(d / "l.lab", np.array([1.5])),
                           "labels must be integers, got dtype float64"),
    "write_labels-bool": (lambda d: corpus.write_labels(d / "l.lab", np.array([True])),
                          "labels must be integers, got dtype bool"),
    "window_stack-0d": (lambda d: corpus.window_stack(np.float64(1.0)),
                        "cannot window an empty sequence"),
    "UtteranceRecord-split": (lambda d: record(split="dev"), "u1: unknown split 'dev'"),
    "UtteranceRecord-syllables": (lambda d: record(syllable_count=0),
                                  "u1: syllable_count must be >= 1"),
    "UtteranceRecord-syllables-bool": (lambda d: record(syllable_count=True),
                                       "u1: syllable_count must be >= 1 and an integer, "
                                       "got True"),
    "UtteranceRecord-syllables-float": (lambda d: record(syllable_count=2.5),
                                        "u1: syllable_count must be >= 1 and an integer, "
                                        "got 2.5"),
    "load_manifest-field": (
        lambda d: corpus.load_manifest(write_bytes(d / "m.json", b'{"phones": []}')),
        "m.json: missing top-level field 'records'"),
    "load_manifest-shared-prompt": (
        lambda d: corpus.load_manifest(write_manifest(d / "m.json", corpus.Manifest(
            ["p0"], [record(), record(utt_id="u2", split="test")]))),
        r"prompts shared between train and test: \['p'\]"),
    "normalize-empty": (lambda d: corpus.normalize([]), "empty set"),
    "normalize-one-array": (lambda d: corpus.normalize(np.zeros((2, 3, 3))),
                            r"list of frame sequences, not one array of shape \(2, 3, 3\)"),
    "pool_clouds-one-point": (
        lambda d: articspace.pool_clouds({"u1": [np.zeros((2, 2))] * 4 + [np.zeros((1, 2))]},
                                         {"u1": ("s1", "modal")}),
        r"^u1\[4\]: contour needs an \(n, 2\) array of n >= 2 \(x, y\) points$"),
    "pool_clouds-ragged": (
        lambda d: articspace.pool_clouds({"u": [[[0.0, 0.0], [1.0]]]}, {"u": ("s1", "modal")}),
        r"^u\[0\]: contour needs an \(n, 2\) array"),
    "ContourCloud-empty": (lambda d: articspace.ContourCloud("s1", "modal", np.empty((0, 2))),
                           "s1/modal: empty contour cloud"),
    "ridge_track-1d": (lambda d: articspace.ridge_track(np.ones(5)),
                       "expected non-empty 2-D frame"),
    "convex_hull-3-columns": (lambda d: articspace.convex_hull(np.zeros((4, 3))),
                              r"convex_hull expects \(n, 2\) points"),
    "polygon_area-nan": (lambda d: articspace.polygon_area([[0, 0], [1, np.nan], [1, 1]]),
                         "polygon_area: points contain NaN or inf"),
    "polygon_area-3-columns": (lambda d: articspace.polygon_area(np.ones((4, 3))),
                               r"polygon_area expects \(n, 2\) vertices"),
    "pool_clouds-utterance": (lambda d: articspace.pool_clouds({"u9": []}, {}),
                              "unknown utterance 'u9'"),
    "pool_clouds-meta-not-pair": (
        lambda d: articspace.pool_clouds({"u": [np.zeros((2, 2))]}, {"u": "x"}),
        r"^u: need a \(speaker, mode\) pair of strings, got 'x'$"),
    "train_bigram-word-outside-vocabulary": (
        lambda d: recognizer.train_bigram([["w1", "w2"]], ["w1"]),
        "holds the word 'w2', which is not in the vocabulary"),
    "train_bigram-number-word": (lambda d: recognizer.train_bigram([["a"]], ["a", 1]),
                                 "vocabulary word 1 must be a nonempty string"),
    "train_bigram-none-word": (lambda d: recognizer.train_bigram([["a"]], ["a", None]),
                               "vocabulary word None must be a nonempty string"),
    "train_bigram-empty-word": (lambda d: recognizer.train_bigram([["a"]], ["a", ""]),
                                "vocabulary word '' must be a nonempty string"),
    "train_bigram-padded-word": (lambda d: recognizer.train_bigram([["a"]], ["a", " b"]),
                                 "vocabulary word ' b' must be a nonempty string "
                                 "with no surrounding whitespace"),
    "bottleneck_logits-width": (
        lambda d: featnet.bottleneck_logits(featnet.init_params(TINY), np.zeros((3, 5))),
        r"bottleneck features must be \(n, 4\), got shape \(3, 5\)"),
    "bottleneck_logits-nan": (
        lambda d: featnet.bottleneck_logits(featnet.init_params(TINY),
                                            [[0, 0, 0, 0], [0, math.nan, 0, 0]]),
        "feature row 1 holds NaN or inf"),
    "bottleneck_logits-inf": (
        lambda d: featnet.bottleneck_logits(featnet.init_params(TINY), [[0, 0, -math.inf, 0]]),
        "feature row 0 holds NaN or inf"),
    "emission_scores-1d-logits": (
        lambda d: recognizer.emission_scores(np.zeros(3), np.array([0])),
        r"logits must be \(frames, classes\), got shape \(3,\)"),
    "emission_scores-label-range": (
        lambda d: recognizer.emission_scores(np.zeros((2, 3)), np.array([0, 3])),
        r"training labels must be 1-D integers in 0\.\.2"),
    "align-chain-longer-than-utterance": (
        lambda d: recognizer.align(np.zeros((3, 2)), [0, 1, 0, 1]),
        "no path fits 3 frames: the shortest chain holds 4 phones"),
    "align-phone-outside-emissions": (lambda d: recognizer.align(np.zeros((3, 2)), [0, 2]),
                                      r"need phones in 0\.\.1, got \[0, 2\]"),
    "align-no-phones": (lambda d: recognizer.align(np.zeros((3, 2)), []),
                        r"need phones in 0\.\.1, got \[\]"),
    "align-inf": (lambda d: recognizer.align([[0.0, 0.0], [math.inf, 0.0]], [0]),
                  "emission frame 1 holds NaN or inf"),
    "align-float-phones": (lambda d: recognizer.align(np.zeros((3, 2)), [1.5, 0.2]),
                           r"phone indices must be integers, got 1\.5"),
    "align-bool-phone": (lambda d: recognizer.align(np.zeros((3, 3)), [True, 2]),
                         "phone indices must be integers, got True"),
    "align-string-phone": (lambda d: recognizer.align(np.zeros((3, 2)), ["a"]),
                           "phone indices must be integers, got 'a'"),
    "decode-bool-phone": (
        lambda d: recognizer.decode(np.zeros((4, 2)), lexicon_edited_to("ab", (0, True)),
                                    recognizer.train_bigram([["ab"]], ["ab"])),
        "phone indices must be integers, got True"),
    "decode-nan": (lambda d: recognizer.decode(np.array([[0.0, math.nan]] * 3), LEXICON, LM),
                   "emission frame 0 holds NaN or inf"),
    "decode-no-frames": (lambda d: recognizer.decode(np.zeros((0, 2)), LEXICON, LM),
                         r"frames >= 1, got shape \(0, 2\)"),
    "decode-words-longer-than-utterance": (
        lambda d: recognizer.decode(np.zeros((1, 2)), LEXICON, LM),
        "no path fits 1 frames: the shortest chain holds 2 phones"),
    "decode-word-outside-lm": (
        lambda d: recognizer.decode(np.zeros((4, 2)), LEXICON,
                                    recognizer.train_bigram([["ab"]], ["ab"])),
        "word 'ba' outside the language model vocabulary"),
    "wer-no-reference-words": (lambda d: recognizer.wer([([], ["a"])]),
                               "needs at least one reference word"),
    "Lexicon-no-phones": (lambda d: recognizer.Lexicon(["p0"], {"w": ()}),
                          "'w' has no phones"),
    "Lexicon-phone-index": (lambda d: recognizer.Lexicon(["p0"], {"w": (1,)}),
                            "'w' has phone index outside inventory"),
    "Lexicon-string-phone": (lambda d: recognizer.Lexicon(["p0", "p1"], {"w": ("a",)}),
                             "lexicon entry 'w' has phone index 'a', not an integer"),
    "Lexicon-float-phone": (lambda d: recognizer.Lexicon(["p0", "p1"], {"w": (0.5, 1)}),
                            "lexicon entry 'w' has phone index 0.5, not an integer"),
    "Lexicon-bool-phone": (lambda d: recognizer.Lexicon(["p0", "p1"], {"w": (True,)}),
                           "lexicon entry 'w' has phone index True, not an integer"),
    "Lexicon-empty-word": (lambda d: recognizer.Lexicon(["p0"], {"": (0,)}),
                           "lexicon word '' must be a nonempty string"),
    "Lexicon-padded-word": (lambda d: recognizer.Lexicon(["p0"], {" yes ": (0,)}),
                            "lexicon word ' yes ' must be a nonempty string "
                            "with no surrounding whitespace"),
    "PairedSeries-duplicate-keys": (lambda d: stats.PairedSeries(["a", "a"], [1, 2], [3, 4]),
                                    "keys must be unique"),
    "PairedSeries-lengths": (lambda d: stats.PairedSeries(["a", "b"], [1, 2], [3]),
                             "lengths differ"),
    "pearson_r-lengths": (lambda d: stats.pearson_r([1, 2, 3], [1, 2]),
                          "two equal-length series"),
    "pearson_r-2d": (lambda d: stats.pearson_r(np.zeros((2, 2)), np.ones((2, 2))),
                     r"1-D series, got shapes \(2, 2\) and \(2, 2\)"),
    "syllable_rate-zero": (lambda d: stats.syllable_rate(0, 1.0),
                           "syllable count must be >= 1, got 0"),
    "syllable_rate-bool": (lambda d: stats.syllable_rate(True, 2.0),
                           "syllable count must be >= 1, got True"),
    "syllable_rate-fraction": (lambda d: stats.syllable_rate(2.5, 1.0),
                               "syllable count must be >= 1, got 2.5"),
    "syllable_rate-bool-duration": (lambda d: stats.syllable_rate(3, True),
                                    "duration must be positive and finite, got True"),
    "build_mode_report-bool-value": (
        lambda d: stats.build_mode_report({}, {"hull_area": {"modal": {"s0": True}}}),
        "metric 'hull_area', mode 'modal', key 's0': value True is not finite"),
    "forward-empty-batch": (lambda d: featnet.forward(featnet.init_params(TINY), X[:0]),
                            "a batch of zero samples has no forward pass"),
    "loss_and_grads-empty-batch": (
        lambda d: featnet.loss_and_grads(featnet.init_params(TINY), X[:0], Y[:0]),
        "a batch of zero samples has no forward pass"),
    # a 0-d value has no sample axis to take the batch length from
    "loss_and_grads-0d": (lambda d: featnet.loss_and_grads(featnet.init_params(TINY), 3.0, [0]),
                          "^x: need a batch with a sample axis, got the 0-d value 3.0$"),
    "accuracy-0d": (lambda d: featnet.accuracy(featnet.init_params(TINY), 3.0, [0]),
                    "^x: need a batch with a sample axis"),
    "train_sgd-0d": (lambda d: featnet.train_sgd(featnet.init_params(TINY), 3.0, [0], 3.0, [0],
                                                 epochs=1),
                     "^train_x: need a batch with a sample axis"),
    "train_sgd-empty-validation": (
        lambda d: featnet.train_sgd(featnet.init_params(TINY), X, Y, X[:0], Y[:0]),
        "train and validation sets must be nonempty"),
    # ragged nestings and text, of which numpy makes no array of numbers
    "forward-ragged": (lambda d: featnet.forward(featnet.init_params(TINY), RAGGED_BATCH),
                       f"^x {NOT_NUMBERS} \\(setting an array element"),
    "forward-string": (lambda d: featnet.forward(featnet.init_params(TINY), ["a", "b"]),
                       f"^x {NOT_NUMBERS} \\(Cannot cast"),
    "loss_and_grads-ragged": (
        lambda d: featnet.loss_and_grads(featnet.init_params(TINY), RAGGED_BATCH, Y),
        f"^x {NOT_NUMBERS}"),
    "loss_and_grads-string": (
        lambda d: featnet.loss_and_grads(featnet.init_params(TINY), ["a", "b"], Y),
        f"^x {NOT_NUMBERS}"),
    "bottleneck_logits-ragged": (
        lambda d: featnet.bottleneck_logits(featnet.init_params(TINY), RAGGED),
        f"^feats {NOT_NUMBERS}"),
    "bottleneck_logits-string": (
        lambda d: featnet.bottleneck_logits(featnet.init_params(TINY), "abc"),
        f"^feats {NOT_NUMBERS}"),
    "accuracy-ragged": (lambda d: featnet.accuracy(featnet.init_params(TINY), RAGGED_BATCH, Y),
                        f"^x {NOT_NUMBERS}"),
    "accuracy-string": (lambda d: featnet.accuracy(featnet.init_params(TINY), ["a", "b"], Y),
                        f"^x {NOT_NUMBERS}"),
    "train_sgd-ragged": (
        lambda d: featnet.train_sgd(featnet.init_params(TINY), RAGGED_BATCH, Y, X, Y),
        f"^train_x {NOT_NUMBERS}"),
    "train_sgd-ragged-validation": (
        lambda d: featnet.train_sgd(featnet.init_params(TINY), X, Y, RAGGED_BATCH, Y),
        f"^val_x {NOT_NUMBERS}"),
    "train_sgd-string": (
        lambda d: featnet.train_sgd(featnet.init_params(TINY), ["a", "b"], Y, X, Y),
        f"^x {NOT_NUMBERS}"),
    "train_sgd-ragged-labels": (
        lambda d: featnet.train_sgd(featnet.init_params(TINY), X, [[0], [0, 1]], X, Y),
        f"^train_y {NOT_NUMBERS}"),
    "extract_bottleneck-ragged": (
        lambda d: featnet.extract_bottleneck(featnet.init_params(TINY),
                                             [np.zeros((8, 8)), np.zeros((8, 7))]),
        f"^frames {NOT_NUMBERS}"),
    "extract_bottleneck-string": (
        lambda d: featnet.extract_bottleneck(featnet.init_params(TINY), [["a"]]),
        f"^frames {NOT_NUMBERS}"),
    "ContourCloud-ragged": (lambda d: articspace.ContourCloud("s1", "modal", RAGGED),
                            f"^s1/modal points {NOT_NUMBERS}"),
    "ridge_track-string": (lambda d: articspace.ridge_track("abc"),
                           f"^ridge_track frame {NOT_NUMBERS}"),
    "fit_iforest-ragged": (lambda d: articspace.fit_iforest(RAGGED),
                           f"^isolation forest fit {NOT_NUMBERS}"),
    "anomaly_score-string": (
        lambda d: articspace.anomaly_score(articspace.fit_iforest(POINTS), "abc"),
        f"^isolation forest scoring {NOT_NUMBERS}"),
    "convex_hull-ragged": (lambda d: articspace.convex_hull(RAGGED),
                           f"^convex_hull {NOT_NUMBERS}"),
    "polygon_area-string": (lambda d: articspace.polygon_area("abc"),
                            f"^polygon_area {NOT_NUMBERS}"),
    "average_path_length-string": (lambda d: articspace.average_path_length("abc"),
                                   f"^average_path_length n {NOT_NUMBERS}"),
    "PairedSeries-ragged": (lambda d: stats.PairedSeries(["a", "b"], RAGGED, [1, 2]),
                            f"^paired series values_a {NOT_NUMBERS}"),
    "pearson_r-string": (lambda d: stats.pearson_r([1, 2, 3], ["x", "y", "z"]),
                         f"^pearson_r y {NOT_NUMBERS}"),
    "build_mode_report-string-value": (
        lambda d: stats.build_mode_report({}, {"hull_area": {"modal": {"s0": "1.0", "s1": 2.0}}}),
        "metric 'hull_area', mode 'modal', key 's0': value '1.0' is not finite"),
    "syllable_rate-string": (lambda d: stats.syllable_rate("3", 1.0),
                             "syllable count must be >= 1, got '3'"),
    "syllable_rate-string-duration": (lambda d: stats.syllable_rate(3, "1.0"),
                                      "duration must be positive and finite, got '1.0'"),
    "normalize-ragged": (lambda d: corpus.normalize([np.zeros((1, 2, 2)), RAGGED]),
                         f"^sequence 1 {NOT_NUMBERS}"),
    "apply_normalization-string": (lambda d: corpus.apply_normalization("abc", 0.0, 1.0),
                                   f"^frames {NOT_NUMBERS}"),
    "window_stack-ragged": (lambda d: corpus.window_stack(RAGGED), f"^frames {NOT_NUMBERS}"),
    "write_frames-ragged": (lambda d: corpus.write_frames(d / "f.artf", [RAGGED]),
                            f"^frame stack {NOT_NUMBERS}"),
    "write_features-string": (lambda d: corpus.write_features(d / "f.artf", [["a", "b"]]),
                              f"^features {NOT_NUMBERS}"),
    "write_labels-ragged": (lambda d: corpus.write_labels(d / "l.lab", [[0, 1], [1]]),
                            f"^labels {NOT_NUMBERS}"),
    "emission_scores-string": (lambda d: recognizer.emission_scores("abc", np.array([0])),
                               f"^logits {NOT_NUMBERS}"),
    "emission_scores-ragged-labels": (
        lambda d: recognizer.emission_scores(np.zeros((2, 2)), [[0, 1], [1]]),
        f"^training labels {NOT_NUMBERS}"),
    "decode-ragged": (lambda d: recognizer.decode(RAGGED, LEXICON, LM),
                      f"^emissions {NOT_NUMBERS}"),
    "align-string": (lambda d: recognizer.align("abc", [0]), f"^emissions {NOT_NUMBERS}"),
}


@pytest.mark.parametrize("name", sorted(BAD_DATA))
def test_data_check_raises_data_error(name, tmp_path):
    """Rejected data raises DataError with a message that says what is
    wrong, and which file or record, where there is one."""
    call, message = BAD_DATA[name]
    with pytest.raises(DataError, match=message) as info:
        call(tmp_path)
    assert type(info.value) is DataError


# every reader of a data file, each given a path it cannot read
MISSING_FILE_READERS = {
    "load_lexicon": lambda p: recognizer.load_lexicon(p, ["p0"]),
    "load_manifest": corpus.load_manifest,
    "load_params": featnet.load_params,
    "read_frames": corpus.read_frames,
    "read_labels": corpus.read_labels,
    "read_features": corpus.read_features,
}


@pytest.mark.parametrize("name, is_dir", [
    pytest.param(name, is_dir, id=name + ("-directory" if is_dir else ""))
    for name in sorted(MISSING_FILE_READERS) for is_dir in (False, True)])
def test_missing_file_raises_data_error(name, is_dir, tmp_path):
    """A path that does not exist, or that names a directory, raises
    DataError naming the path, not a bare OSError."""
    path = tmp_path / "input.bin"
    if is_dir:
        path.mkdir()
    with pytest.raises(DataError, match="input.bin") as info:
        MISSING_FILE_READERS[name](path)
    assert isinstance(info.value.__cause__, IsADirectoryError if is_dir else FileNotFoundError)
