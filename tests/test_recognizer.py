import importlib
import math
import re

import pytest

from silentspeech.errors import DataError
from silentspeech.recognizer import Lexicon, load_lexicon, save_lexicon, train_bigram
from silentspeech.recognizer.lm import BOS, EOS


def test_package_imports():
    rec = importlib.import_module("silentspeech.recognizer")
    assert set(rec.__all__) == {"Lexicon", "load_lexicon", "save_lexicon",
                                "BigramLm", "train_bigram"}
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
