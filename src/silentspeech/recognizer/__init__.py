"""Recognition over bottleneck features: lexicon, bigram language model,
hybrid Viterbi decoding, forced alignment and word error rate."""

from .decode import align, decode, emission_scores, wer
from .lexicon import Lexicon, load_lexicon, save_lexicon
from .lm import BigramLm, train_bigram

__all__ = [
    "Lexicon", "load_lexicon", "save_lexicon",
    "BigramLm", "train_bigram",
    "emission_scores", "decode", "align", "wer",
]
