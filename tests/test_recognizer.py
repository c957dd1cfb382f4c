import dataclasses
import importlib
import itertools
import math
import re

import numpy as np
import pytest

from silentspeech import corpus, featnet
from silentspeech.errors import DataError
from silentspeech.recognizer import (Lexicon, align, decode, emission_scores, load_lexicon,
                                     save_lexicon, train_bigram, wer)
from silentspeech.recognizer.decode import _LM_WEIGHT
from silentspeech.recognizer.lm import BOS, EOS


def test_package_imports():
    rec = importlib.import_module("silentspeech.recognizer")
    assert set(rec.__all__) == {"Lexicon", "load_lexicon", "save_lexicon",
                                "BigramLm", "train_bigram",
                                "emission_scores", "decode", "align", "wer"}
    for name in rec.__all__:
        assert hasattr(rec, name)


class TestBigramLm:
    # events a, b, c, </s> occur 5, 2, 3 and 6 times in N = 16 tokens, so the
    # unigram is (count + 1) / 20: 0.3, 0.15, 0.2, 0.35. "a" is followed by
    # every event (a, b, c, </s> once, once, once, twice); "b" only by c and
    # </s>, once each.
    SENTENCES = [["a", "a"], ["a", "b"], ["a", "c"], ["a"], ["b", "c"], ["c"]]
    VOCAB = ["c", "a", "b"]
    UNIGRAM = {"a": 6 / 20, "b": 3 / 20, "c": 4 / 20, "</s>": 7 / 20}

    def test_unigram_hand_computed(self):
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        assert lm.vocab == ["a", "b", "c"]
        assert lm.unigram == self.UNIGRAM

    def test_distribution_sums_to_one_per_history(self):
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        for history in [BOS] + lm.vocab:
            total = sum(lm.prob(w, history) for w in lm.events)
            assert abs(total - 1.0) <= 1e-12, history

    def test_history_that_saw_every_event_keeps_backoff_model_value(self):
        """The backoff model this one replaced interpolated a history that
        saw every event as c(h, w) / (c(h) + T(h)) plus T(h) / (c(h) + T(h))
        times the unigram; here c(a) = 5 and T(a) = 4."""
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        counts = {"a": 1, "b": 1, "c": 1, "</s>": 2}
        for w, c in counts.items():
            old = c / 9 + 4 / 9 * self.UNIGRAM[w]
            assert lm.prob(w, "a") == pytest.approx(old, rel=1e-15, abs=0), w

    def test_interpolated_values_hand_computed(self):
        """P(w | b) = (c(b, w) + 2 P_uni(w)) / (2 + 2)."""
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        want = {"a": 3 / 20, "b": 3 / 40, "c": 7 / 20, "</s>": 17 / 40}
        for w, p in want.items():
            assert lm.prob(w, "b") == pytest.approx(p, rel=1e-15, abs=0), w

    def test_sentence_logprob_hand_computed(self):
        """<s> is followed by a 4 times, b and c once each (c = 6, T = 3);
        c only by </s>, 3 times (c = 3, T = 1)."""
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        p_b = (1 + 3 * 0.15) / 9
        p_c_after_b = 7 / 20
        p_end_after_c = (3 + 1 * 0.35) / 4
        want = math.log(p_b) + math.log(p_c_after_b) + math.log(p_end_after_c)
        assert lm.sentence_logprob(["b", "c"]) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("history", ["zzz", EOS])
    def test_bad_history_rejected(self, history):
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        with pytest.raises(DataError, match="neither '<s>' nor a vocabulary word"):
            lm.prob("a", history)

    def test_unknown_word_rejected(self):
        lm = train_bigram(self.SENTENCES, self.VOCAB)
        with pytest.raises(DataError, match="outside the language model vocabulary"):
            lm.prob("zzz", "a")

    @pytest.mark.parametrize("sentences", [[], [[]], [["a", BOS]], [[EOS]]])
    def test_bad_corpus_rejected(self, sentences):
        with pytest.raises(DataError):
            train_bigram(sentences, ["a"])

    # "d" and "e" are lexicon words that no training sentence holds
    LEXICON_WORDS = ["a", "b", "c", "d", "e"]

    def test_unseen_words_get_add_one_mass(self):
        """N = 16 event tokens over V = 6 events: every event gets
        (count + 1) / 22, so "d" and "e" get 1 / 22."""
        lm = train_bigram(self.SENTENCES, self.LEXICON_WORDS)
        assert lm.vocab == self.LEXICON_WORDS
        want = {"a": 6 / 22, "b": 3 / 22, "c": 4 / 22, "d": 1 / 22, "e": 1 / 22, EOS: 7 / 22}
        assert lm.unigram == pytest.approx(want, rel=1e-15, abs=0)
        assert lm.prob("d", "b") == pytest.approx(2 * (1 / 22) / 4, rel=1e-15, abs=0)

    def test_history_without_successors_uses_unigram(self):
        lm = train_bigram(self.SENTENCES, self.LEXICON_WORDS)
        for history in ("d", "e"):
            for w in lm.events:
                assert lm.prob(w, history) == lm.unigram[w], (history, w)

    def test_distribution_sums_to_one_with_unseen_words(self):
        """Every history sums to one: <s>, the seen words, which saw every
        event ("a") or some ("b", "c"), and the unseen words."""
        lm = train_bigram(self.SENTENCES, self.LEXICON_WORDS)
        for history in [BOS, "a", "b", "c", "d", "e"]:
            total = sum(lm.prob(w, history) for w in lm.events)
            assert abs(total - 1.0) <= 1e-12, history

    def test_sentence_word_outside_vocabulary_rejected(self):
        with pytest.raises(DataError, match="holds the word 'z', which is not in the vocabulary"):
            train_bigram([["a", "b"], ["a", "z"]], self.VOCAB)

    @pytest.mark.parametrize("symbol", [BOS, EOS])
    def test_reserved_symbol_in_vocabulary_rejected(self, symbol):
        with pytest.raises(DataError, match="vocabulary holds the reserved symbol"):
            train_bigram(self.SENTENCES, self.VOCAB + [symbol])


class TestLexicon:
    PHONES = ["p0", "p1", "p2"]

    def test_round_trip(self, tmp_path):
        lex = Lexicon(phones=self.PHONES, entries={"hello": (0, 1, 2), "world": (2, 0)})
        save_lexicon(lex, tmp_path / "lex.txt")
        assert load_lexicon(tmp_path / "lex.txt", self.PHONES) == lex

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("\nhello\tp0 p1\n  \n\t\nworld\tp2\n\n")
        assert load_lexicon(path, self.PHONES) == Lexicon(
            phones=self.PHONES, entries={"hello": (0, 1), "world": (2,)})

    def test_phones_for_concatenates_entries(self):
        lex = Lexicon(phones=self.PHONES, entries={"hello": (0, 1, 2), "world": (2, 0)})
        assert lex.phones_for(["world", "hello", "world"]) == [2, 0, 0, 1, 2, 2, 0]
        assert lex.phones_for([]) == []
        with pytest.raises(DataError, match="word 'ghost' not in lexicon"):
            lex.phones_for(["hello", "ghost"])

    def test_round_trip_is_utf8(self, tmp_path):
        """Written and read as UTF-8 whatever the locale's encoding."""
        lex = Lexicon(phones=self.PHONES, entries={"café": (0, 1)})
        save_lexicon(lex, tmp_path / "lex.txt")
        assert (tmp_path / "lex.txt").read_bytes() == "café\tp0 p1\n".encode("utf-8")
        assert load_lexicon(tmp_path / "lex.txt", self.PHONES) == lex

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xffword\tp0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            load_lexicon(path, self.PHONES)

    @pytest.mark.parametrize("line, reason", [
        ("word", "expected 2 tab-separated fields"),
        ("word\tp0 zz", "unknown phone 'zz'"),
        ("good\tp1", "word 'good' is listed twice"),
        ("w\t", "word 'w' has no phones"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "lex.txt"
        path.write_text(f"good\tp0 p1\n{line}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {reason}")):
            load_lexicon(path, self.PHONES)

    @pytest.mark.parametrize("line, word", [("\tp0", ""), (" yes \tp0", " yes ")])
    def test_empty_or_padded_word_rejected(self, tmp_path, line, word):
        """A word that decode could emit but no prompt holds: '' from a
        line that starts with its tab, or ' yes ' beside 'yes'."""
        path = tmp_path / "lex.txt"
        path.write_text(f"yes\tp1\n{line}\n")
        with pytest.raises(DataError, match=re.escape(f"lexicon word {word!r} must be")):
            load_lexicon(path, self.PHONES)


def word_sequences(lexicon, budget):
    """Every nonempty word sequence whose phones number at most ``budget``."""
    for w in lexicon.words:
        n = len(lexicon.entries[w])
        if n <= budget:
            yield [w]
            for rest in word_sequences(lexicon, budget - n):
                yield [w, *rest]


def segmentations(chain, n_frames):
    """The frame labels of every split of ``n_frames`` frames into one run
    of at least one frame per phone of ``chain``, in order."""
    for cuts in itertools.combinations(range(1, n_frames), len(chain) - 1):
        bounds = (0, *cuts, n_frames)
        yield [p for p, lo, hi in zip(chain, bounds, bounds[1:]) for _ in range(lo, hi)]


def path_score(em, labels):
    return sum(em[t, p] for t, p in enumerate(labels))


def random_case(seed):
    """A 3- or 4-word lexicon of 1-3 phones per word over 3 or 4 phones, a
    bigram LM trained on three random sentences of it, and 3-7 frames of
    standard normal emissions, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_phones = int(rng.integers(3, 5))
    words = [f"w{i}" for i in range(int(rng.integers(3, 5)))]
    lexicon = Lexicon([f"p{i}" for i in range(n_phones)], {
        w: tuple(int(p) for p in rng.integers(0, n_phones, int(rng.integers(1, 4))))
        for w in words})
    sentences = [list(rng.choice(words, int(rng.integers(1, 4)))) for _ in range(3)]
    lm = train_bigram(sentences, words)
    em = rng.standard_normal((int(rng.integers(3, 8)), n_phones))
    return lexicon, lm, em


class TestDecode:
    # no word's phones begin another's, so a phone string spells one word sequence
    LEXICON = Lexicon(["a", "b", "c", "d"],
                      {"one": (0,), "two": (1, 2), "three": (2, 3, 1), "four": (3, 0)})
    PROMPT = ["two", "four", "three", "one"]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_search(self, seed):
        """The words and score equal the best of every word sequence and
        every segmentation of its phones, the LM scored by
        ``sentence_logprob``, which the trellis does not call."""
        lexicon, lm, em = random_case(seed)
        best_score, best_words = -math.inf, None
        for words in word_sequences(lexicon, len(em)):
            lm_score = _LM_WEIGHT * lm.sentence_logprob(words)
            for labels in segmentations(lexicon.phones_for(words), len(em)):
                score = path_score(em, labels) + lm_score
                if score > best_score:
                    best_score, best_words = score, words
        words, score = decode(em, lexicon, lm)
        assert words == best_words
        assert score == pytest.approx(best_score, rel=1e-12, abs=0)

    def test_posterior_argmax_spells_prompt(self):
        """Frames whose most probable phone runs through the prompt's phones,
        three frames each, decode to the prompt and align to those phones.
        The LM saw the prompt and two other sentences, whose bigrams
        "three four" and "four </s>" would spell a wrong ending."""
        chain = self.LEXICON.phones_for(self.PROMPT)
        labels = np.repeat(chain, 3)
        posteriors = np.full((len(labels), 4), 0.01)
        posteriors[np.arange(len(labels)), labels] = 0.97
        train_labels = np.array([0, 1, 1, 2, 2, 2, 3, 3])
        em = emission_scores(np.log(posteriors), train_labels)
        lm = train_bigram([["one", "two"], ["three", "four"], self.PROMPT], self.LEXICON.words)
        assert decode(em, self.LEXICON, lm)[0] == self.PROMPT
        assert np.array_equal(align(em, chain), labels)

    def test_emission_scores_hand_computed(self):
        """log posterior less log prior: priors (1 + 1) / 5 and (2 + 1) / 5."""
        em = emission_scores(np.log([[0.25, 0.75]]) + 3.0, np.array([0, 1, 1]))
        want = [math.log(0.25 / 0.4), math.log(0.75 / 0.6)]
        assert em[0] == pytest.approx(want, rel=1e-12, abs=0)


class TestAlign:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_search(self, seed):
        """The labels are those of the best of every segmentation of the
        chain, each phone taking at least one frame in order."""
        rng = np.random.default_rng(seed)
        em = rng.standard_normal((int(rng.integers(1, 8)), 4))
        chain = [int(p) for p in rng.integers(0, 4, int(rng.integers(1, len(em) + 1)))]
        best = max(segmentations(chain, len(em)), key=lambda labels: path_score(em, labels))
        assert align(em, chain).tolist() == best


class TestWer:
    @pytest.mark.parametrize("ref, hyp, edits", [
        ("a b c d", "a b c d", 0),
        ("a b c d", "a x c d", 1),  # substitution
        ("a b", "a b c", 1),  # insertion
        ("a b c", "a c", 1),  # deletion
        ("a b", "", 2),  # empty hypothesis: every word deleted
        ("a b c", "b c d", 2),  # a deleted, d inserted
        ("a b c", "c b a", 2),  # two substitutions
    ])
    def test_hand_computed_edits(self, ref, hyp, edits):
        assert wer([(ref.split(), hyp.split())]) == edits / len(ref.split())

    def test_pools_edits_over_reference_words(self):
        pairs = [("a b c d".split(), "a x c d".split()), ("a b".split(), [])]
        assert wer(pairs) == 3 / 6


def test_pipeline_smoke(tmp_path):
    """FeatNet -> bottleneck -> feature file -> logits -> emissions ->
    decode and align, on an untrained TINY network. No accuracy is claimed:
    each of the 8 frames' words holds 3 phones, so no hypothesis outnumbers
    the 2-word reference and the WER cannot pass 1."""
    cfg = featnet.FeatNetConfig(input_shape=(7, 8, 8), conv_kernel=2, conv_filters=(2, 3),
                                fc_dims=(8, 6, 4, 6), n_classes=2, seed=0)
    params = featnet.init_params(cfg)
    rng = np.random.default_rng(3)
    frames = rng.random((8, 8, 8))
    corpus.write_features(tmp_path / "u1.fea", featnet.extract_bottleneck(params, frames))
    logits = featnet.bottleneck_logits(params, corpus.read_features(tmp_path / "u1.fea"))
    em = emission_scores(logits, rng.integers(0, 2, 40))
    lexicon = Lexicon(["a", "b"], {"aab": (0, 0, 1), "abb": (0, 1, 1), "bba": (1, 1, 0)})
    prompt = ["aab", "bba"]
    lm = train_bigram([prompt, ["abb"]], lexicon.words)
    words, _ = decode(em, lexicon, lm)
    labels = align(em, lexicon.phones_for(prompt))
    assert words and all(w in lexicon.entries for w in words)
    assert labels.shape == (len(frames),)
    assert 0.0 <= wer([(prompt, words)]) <= 1.0
