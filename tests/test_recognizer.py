import importlib
import re

import pytest

from silentspeech.errors import DataError
from silentspeech.recognizer import Lexicon, load_lexicon, save_lexicon, train_bigram
from silentspeech.recognizer.lm import BOS


def test_package_imports():
    rec = importlib.import_module("silentspeech.recognizer")
    assert set(rec.__all__) == {"Lexicon", "load_lexicon", "save_lexicon",
                                "BigramLm", "train_bigram"}
    for name in rec.__all__:
        assert hasattr(rec, name)


class TestBigramLm:
    # "a" is followed by every event (a, b, c, </s>): its reserved mass has
    # no unseen event to back off to. "b" is followed by c and </s> only.
    SENTENCES = [["a", "a"], ["a", "b"], ["a", "c"], ["a"], ["b", "c"], ["c"]]

    def test_both_smoothing_branches_present(self):
        lm = train_bigram(self.SENTENCES)
        assert "a" in lm.interpolate_full
        assert "b" not in lm.interpolate_full and "b" in lm.backoff

    def test_distribution_sums_to_one_per_history(self):
        lm = train_bigram(self.SENTENCES)
        for history in [BOS] + lm.vocab:
            total = sum(lm.prob(w, history) for w in lm.events)
            assert abs(total - 1.0) <= 1e-12, history


class TestLexicon:
    PHONES = ["p0", "p1", "p2"]

    def test_round_trip(self, tmp_path):
        lex = Lexicon(phones=self.PHONES,
                      entries={"hello": (0, 1, 2), "world": (2, 0)},
                      syllables={"hello": 2, "world": 1})
        save_lexicon(lex, tmp_path / "lex.txt")
        assert load_lexicon(tmp_path / "lex.txt", self.PHONES) == lex

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
