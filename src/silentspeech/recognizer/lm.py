"""Interpolated Witten-Bell bigram language model (Witten & Bell 1991).

The vocabulary is given, normally the lexicon's words, and may hold words
that no training sentence does. Histories h are the sentence-begin symbol
or a vocabulary word; predicted events w are the vocabulary words plus the
sentence-end symbol. A history seen in training uses

    P(w | h) = (c(h, w) + T(h) * P_uni(w)) / (c(h) + T(h))

where c(h, w) counts w after h, c(h) is the sum of those counts and T(h)
is the number of distinct successors of h. A history with no successors
(T(h) = c(h) = 0, where the formula is 0/0) uses the unigram. The unigram
is add-one smoothed over the V events, P_uni(w) = (c(w) + 1) / (N + V)
for N event tokens, so an unseen word gets the mass of one count. For
every history the conditional distribution sums to one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import DataError, UsageError

BOS = "<s>"
EOS = "</s>"


@dataclass
class BigramLm:
    vocab: list[str]
    unigram: dict[str, float]                                 # event -> P_uni
    successors: dict[str, dict[str, int]] = field(repr=False)  # h -> w -> c(h, w)
    totals: dict[str, int] = field(repr=False)                 # h -> c(h)

    @property
    def events(self) -> list[str]:
        return self.vocab + [EOS]

    def prob(self, word: str, history: str) -> float:
        """P(word | history); history is BOS or a vocabulary word."""
        if word not in self.unigram:
            raise DataError(f"word {word!r} outside the language model vocabulary")
        if history not in self.successors:
            raise DataError(f"history {history!r} is neither {BOS!r} nor a vocabulary word")
        succ = self.successors[history]
        if not succ:
            return self.unigram[word]
        types = len(succ)
        return (succ.get(word, 0) + types * self.unigram[word]) / (self.totals[history] + types)

    def logprob(self, word: str, history: str) -> float:
        return math.log(self.prob(word, history))

    def sentence_logprob(self, words: list[str]) -> float:
        total = 0.0
        history = BOS
        for w in words:
            total += self.logprob(w, history)
            history = w
        return total + self.logprob(EOS, history)


def train_bigram(sentences: list[list[str]], vocab: Iterable[str]) -> BigramLm:
    """Interpolated Witten-Bell bigram over word sequences, predicting the
    words of ``vocab`` (the lexicon's words, say) and the sentence end.
    Empty sentences are skipped. UsageError when ``vocab`` or a sentence is
    a string, which would iterate as its characters; DataError for a
    vocabulary word that is not a nonempty string without surrounding
    whitespace (the lexicon's rule for its words), a sentence word outside
    ``vocab`` or a reserved symbol in either."""
    if isinstance(vocab, str):
        raise UsageError(f"vocab must be a collection of words, not the string {vocab!r}")
    vocab = list(vocab)
    for w in vocab:
        if not isinstance(w, str) or not w or w != w.strip():
            raise DataError(f"vocabulary word {w!r} must be a nonempty string "
                            "with no surrounding whitespace")
    vocab = sorted(set(vocab))
    for w in (BOS, EOS):
        if w in vocab:
            raise DataError(f"vocabulary holds the reserved symbol {w!r}")
    sentences = [s for s in sentences if s]
    if not sentences:
        raise DataError("cannot train a language model on an empty corpus")
    uni_counts = dict.fromkeys(vocab + [EOS], 0)
    successors: dict[str, dict[str, int]] = {h: {} for h in [BOS] + vocab}
    for s in sentences:
        if isinstance(s, str):
            raise UsageError(f"a sentence must be a list of words, not the string {s!r}")
        if BOS in s or EOS in s:
            raise DataError(f"sentence {s!r} holds a reserved symbol {BOS!r} or {EOS!r}")
        for history, w in zip([BOS] + s, s + [EOS]):
            if w not in uni_counts:
                raise DataError(f"sentence {s!r} holds the word {w!r}, "
                                "which is not in the vocabulary")
            uni_counts[w] += 1
            succ = successors[history]
            succ[w] = succ.get(w, 0) + 1
    denom = sum(uni_counts.values()) + len(uni_counts)
    unigram = {w: (c + 1) / denom for w, c in uni_counts.items()}
    totals = {h: sum(succ.values()) for h, succ in successors.items()}
    return BigramLm(vocab=vocab, unigram=unigram, successors=successors, totals=totals)
