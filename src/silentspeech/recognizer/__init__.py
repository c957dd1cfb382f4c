"""Recognition stack over bottleneck features: lexicon and language model."""

from .lexicon import Lexicon, load_lexicon, save_lexicon
from .lm import BigramLm, train_bigram

__all__ = [
    "Lexicon", "load_lexicon", "save_lexicon",
    "BigramLm", "train_bigram",
]
