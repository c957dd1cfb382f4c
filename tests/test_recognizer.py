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
    UNIGRAM = {"a": 6 / 20, "b": 3 / 20, "c": 4 / 20, "</s>": 7 / 20}

    def test_unigram_hand_computed(self):
        lm = train_bigram(self.SENTENCES)
        assert lm.vocab == ["a", "b", "c"]
        assert lm.unigram == self.UNIGRAM

    def test_distribution_sums_to_one_per_history(self):
        lm = train_bigram(self.SENTENCES)
        for history in [BOS] + lm.vocab:
            total = sum(lm.prob(w, history) for w in lm.events)
            assert abs(total - 1.0) <= 1e-12, history

    def test_history_that_saw_every_event_keeps_backoff_model_value(self):
        """The backoff model this one replaced interpolated a history that
        saw every event as c(h, w) / (c(h) + T(h)) plus T(h) / (c(h) + T(h))
        times the unigram; here c(a) = 5 and T(a) = 4."""
        lm = train_bigram(self.SENTENCES)
        counts = {"a": 1, "b": 1, "c": 1, "</s>": 2}
        for w, c in counts.items():
            old = c / 9 + 4 / 9 * self.UNIGRAM[w]
            assert lm.prob(w, "a") == pytest.approx(old, rel=1e-15, abs=0), w

    def test_interpolated_values_hand_computed(self):
        """P(w | b) = (c(b, w) + 2 P_uni(w)) / (2 + 2)."""
        lm = train_bigram(self.SENTENCES)
        want = {"a": 3 / 20, "b": 3 / 40, "c": 7 / 20, "</s>": 17 / 40}
        for w, p in want.items():
            assert lm.prob(w, "b") == pytest.approx(p, rel=1e-15, abs=0), w

    def test_sentence_logprob_hand_computed(self):
        """<s> is followed by a 4 times, b and c once each (c = 6, T = 3);
        c only by </s>, 3 times (c = 3, T = 1)."""
        lm = train_bigram(self.SENTENCES)
        p_b = (1 + 3 * 0.15) / 9
        p_c_after_b = 7 / 20
        p_end_after_c = (3 + 1 * 0.35) / 4
        want = math.log(p_b) + math.log(p_c_after_b) + math.log(p_end_after_c)
        assert lm.sentence_logprob(["b", "c"]) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("history", ["zzz", EOS])
    def test_bad_history_rejected(self, history):
        lm = train_bigram(self.SENTENCES)
        with pytest.raises(DataError, match="neither '<s>' nor a vocabulary word"):
            lm.prob("a", history)

    def test_unknown_word_rejected(self):
        lm = train_bigram(self.SENTENCES)
        with pytest.raises(DataError, match="outside the language model vocabulary"):
            lm.prob("zzz", "a")

    @pytest.mark.parametrize("sentences", [[], [[]], [["a", BOS]], [[EOS]]])
    def test_bad_corpus_rejected(self, sentences):
        with pytest.raises(DataError):
            train_bigram(sentences)


class TestLexicon:
    PHONES = ["p0", "p1", "p2"]

    def test_round_trip(self, tmp_path):
        lex = Lexicon(phones=self.PHONES,
                      entries={"hello": (0, 1, 2), "world": (2, 0)},
                      syllables={"hello": 2, "world": 1})
        save_lexicon(lex, tmp_path / "lex.txt")
        assert load_lexicon(tmp_path / "lex.txt", self.PHONES) == lex

    def test_phones_for_concatenates_entries(self):
        lex = Lexicon(phones=self.PHONES,
                      entries={"hello": (0, 1, 2), "world": (2, 0)},
                      syllables={"hello": 2, "world": 1})
        assert lex.phones_for(["world", "hello", "world"]) == [2, 0, 0, 1, 2, 2, 0]
        assert lex.phones_for([]) == []
        with pytest.raises(DataError, match="word 'ghost' not in lexicon"):
            lex.phones_for(["hello", "ghost"])

    def test_syllable_count_without_entry_rejected(self):
        with pytest.raises(DataError, match=re.escape("no lexicon entry: ['ghost']")):
            Lexicon(["p0"], {"a": (0,)}, {"a": 1, "ghost": 3})

    def test_round_trip_is_utf8(self, tmp_path):
        """Written and read as UTF-8 whatever the locale's encoding."""
        lex = Lexicon(phones=self.PHONES, entries={"café": (0, 1)}, syllables={"café": 2})
        save_lexicon(lex, tmp_path / "lex.txt")
        assert (tmp_path / "lex.txt").read_bytes() == "café\t2\tp0 p1\n".encode("utf-8")
        assert load_lexicon(tmp_path / "lex.txt", self.PHONES) == lex

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xffword\t1\tp0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            load_lexicon(path, self.PHONES)

    @pytest.mark.parametrize("line, reason", [
        ("word\t1", "expected 3 tab-separated fields"),
        ("word\t1\tp0 zz", "unknown phone 'zz'"),
        ("word\tone\tp0", "bad syllable count 'one'"),
        ("good\t2\tp1", "word 'good' is listed twice"),
        ("w\t0\tp0", "syllable count must be >= 1, got '0'"),
        ("w\t1\t", "word 'w' has no phones"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "lex.txt"
        path.write_text(f"good\t1\tp0 p1\n{line}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {reason}")):
            load_lexicon(path, self.PHONES)
