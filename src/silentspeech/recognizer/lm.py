"""Interpolated Witten-Bell bigram language model (Witten & Bell 1991).

Histories h are the sentence-begin symbol or a vocabulary word; predicted
events w are the vocabulary words plus the sentence-end symbol. Every
history uses the one formula

    P(w | h) = (c(h, w) + T(h) * P_uni(w)) / (c(h) + T(h))

where c(h, w) counts w after h, c(h) is the sum of those counts and T(h)
is the number of distinct successors of h. The unigram is Witten-Bell
smoothed towards the uniform distribution over the V events; every event
occurs in training, so it is P_uni(w) = (c(w) + 1) / (N + V) for N event
tokens. For every history the conditional distribution sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import DataError

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


def train_bigram(sentences: list[list[str]]) -> BigramLm:
    """Interpolated Witten-Bell bigram over word sequences; empty sentences
    are skipped."""
    sentences = [s for s in sentences if s]
    if not sentences:
        raise DataError("cannot train a language model on an empty corpus")
    uni_counts: dict[str, int] = {}
    successors: dict[str, dict[str, int]] = {}
    for s in sentences:
        if BOS in s or EOS in s:
            raise DataError(f"sentence {s!r} holds a reserved symbol {BOS!r} or {EOS!r}")
        for history, w in zip([BOS] + s, s + [EOS]):
            uni_counts[w] = uni_counts.get(w, 0) + 1
            succ = successors.setdefault(history, {})
            succ[w] = succ.get(w, 0) + 1
    vocab = sorted(uni_counts.keys() - {EOS})
    denom = sum(uni_counts.values()) + len(uni_counts)
    unigram = {w: (uni_counts[w] + 1) / denom for w in vocab + [EOS]}
    totals = {h: sum(succ.values()) for h, succ in successors.items()}
    return BigramLm(vocab=vocab, unigram=unigram, successors=successors, totals=totals)
