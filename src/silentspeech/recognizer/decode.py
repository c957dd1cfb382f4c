"""Hybrid decoding, forced alignment and word error rate.

A frame's emission score for phone p is log P(p | x) - log P(p), the
network's posterior scaled by an add-one phone prior (Bourlard & Morgan
1994). :func:`decode` and :func:`align` share one exact Viterbi pass,
:func:`_viterbi`, over left-to-right chains of phones, one state per
phone: a state stays or moves to its successor, so each phone takes at
least one frame, and weighted edges join chain ends to chain starts.
Decoding searches the loop of lexicon words, with ``_LM_WEIGHT`` times the
bigram log-probability on each entry, edge and exit; alignment searches
the one chain of a prompt's phones. There is no beam and no insertion
penalty: 12 words over 24 frames take milliseconds.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from ..errors import DataError, UsageError, _array
from .lexicon import Lexicon
from .lm import BOS, EOS, BigramLm

_LM_WEIGHT = 2.0  # LM log-probabilities against emissions; fixed until a dev split picks one


def emission_scores(logits: np.ndarray, train_labels: np.ndarray) -> np.ndarray:
    """log_softmax(logits) less the log add-one prior of each class over
    ``train_labels``, one row per frame; DataError unless the labels are
    1-D integers within the logits' classes."""
    logits = _array(logits, "logits", np.float64)
    labels = _array(train_labels, "training labels")
    if logits.ndim != 2:
        raise DataError(f"logits must be (frames, classes), got shape {logits.shape}")
    n = logits.shape[1]
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or (
            labels.size and not 0 <= labels.min() <= labels.max() < n):
        raise DataError(f"training labels must be 1-D integers in 0..{n - 1}")
    counts = np.bincount(labels, minlength=n) + 1.0
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True)) - np.log(counts / counts.sum())


def _viterbi(emissions, chains, enter, leave, edges):
    """Best path over the frames of ``emissions`` (frames x phones) through
    ``chains``, lists of phone indices. A path starts chain i at frame 0 with
    score enter[i], moves from the end of chain j to the start of chain i with
    score edges[j, i], and ends in chain i with score leave[i]. Returns the
    path's score, its state (an index into the concatenated chains) at each
    frame, and the chains it visits, in order."""
    emissions = _array(emissions, "emissions", np.float64)
    if emissions.ndim != 2 or emissions.shape[0] == 0:
        raise DataError(f"emissions must be (frames, phones) with frames >= 1, "
                        f"got shape {emissions.shape}")
    bad = ~np.isfinite(emissions).all(axis=1)
    if bad.any():
        raise DataError(f"emission frame {np.argmax(bad)} holds NaN or inf")
    lengths = np.array([len(c) for c in chains], dtype=np.intp)
    phones = [p for c in chains for p in c]
    # numpy would truncate a float to an index and take a bool as 0 or 1
    wrong = [p for p in phones if isinstance(p, bool) or not isinstance(p, Integral)]
    if wrong:
        raise DataError(f"phone indices must be integers, got {wrong[0]!r}")
    if not phones or not all(0 <= p < emissions.shape[1] for p in phones):
        raise DataError(f"need phones in 0..{emissions.shape[1] - 1}, "
                        f"got {[int(p) for p in phones]}")
    phones = np.array(phones, dtype=np.intp)
    ends = np.cumsum(lengths) - 1
    starts = ends - lengths + 1
    scores = emissions[:, phones]
    n_frames, n_states = scores.shape
    advance = np.zeros(n_states)  # score of moving into a state from its predecessor
    advance[starts] = -np.inf
    first, last = np.full(n_states, -np.inf), np.full(n_states, -np.inf)
    first[starts], last[ends] = enter, leave
    chain_ids = np.arange(len(chains))
    back = np.empty((n_frames, n_states), dtype=np.intp)  # predecessor state
    jumped = np.zeros((n_frames, n_states), dtype=bool)  # entered along an edge
    delta = first + scores[0]
    for t in range(1, n_frames):
        best, prev = delta.copy(), np.arange(n_states)
        move = np.concatenate(([-np.inf], delta[:-1])) + advance
        take = move > best
        best[take], prev[take] = move[take], prev[take] - 1
        cand = delta[ends, None] + edges
        src = cand.argmax(axis=0)
        gain = cand[src, chain_ids]
        take = gain > best[starts]
        best[starts[take]], prev[starts[take]] = gain[take], ends[src[take]]
        jumped[t, starts[take]] = True
        back[t], delta = prev, best + scores[t]
    total = delta + last
    s = int(total.argmax())
    score = float(total[s])
    if score == -np.inf:
        raise DataError(f"no path fits {n_frames} frames: the shortest chain "
                        f"holds {lengths.min()} phones")
    states = np.empty(n_frames, dtype=np.intp)
    for t in range(n_frames - 1, -1, -1):
        states[t], s = s, back[t, s]
    entered = jumped[np.arange(n_frames), states]
    entered[0] = True
    return score, states, np.repeat(chain_ids, lengths)[states[entered]]


def decode(emissions: np.ndarray, lexicon: Lexicon, lm: BigramLm) -> tuple[list[str], float]:
    """The best word sequence of one utterance's emissions (frames x phones)
    and its score: the emissions summed along the best path through the
    loop of lexicon words plus ``_LM_WEIGHT`` times ``lm.sentence_logprob``
    of the words. DataError when a lexicon word is outside the LM's
    vocabulary or no word fits the frames."""
    words = lexicon.words
    score, _, visited = _viterbi(
        emissions, [lexicon.entries[w] for w in words],
        [_LM_WEIGHT * lm.logprob(w, BOS) for w in words],
        [_LM_WEIGHT * lm.logprob(EOS, w) for w in words],
        _LM_WEIGHT * np.array([[lm.logprob(w, h) for w in words] for h in words]))
    return [words[i] for i in visited], score


def align(emissions: np.ndarray, phones: list[int]) -> np.ndarray:
    """Forced alignment: one phone label per frame, from the best
    segmentation of ``phones`` (a prompt's, by ``Lexicon.phones_for``) in
    order, each phone at least one frame. DataError when the phones
    outnumber the frames."""
    _, states, _ = _viterbi(emissions, [phones], [0.0], [0.0], np.full((1, 1), -np.inf))
    return np.asarray(phones, dtype=np.intp)[states]


def wer(pairs) -> float:
    """Word error rate of (reference, hypothesis) word-list pairs: their
    word-level Levenshtein edits (substitutions, insertions, deletions)
    summed, over their reference words summed. DataError when the
    references hold no word; UsageError when ``pairs`` does not iterate as
    pairs, or a pair member is not a list (or tuple) of word strings, such
    as a string, which would be scored letter by letter."""
    try:
        pairs = [(ref, hyp) for ref, hyp in pairs]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"wer needs (reference, hypothesis) pairs ({exc})") from exc
    edits = n_ref = 0
    for ref, hyp in pairs:
        if not all(isinstance(words, (list, tuple)) and all(isinstance(w, str) for w in words)
                   for words in (ref, hyp)):
            raise UsageError(f"wer needs lists of words, got {ref!r} and {hyp!r}")
        row = list(range(len(hyp) + 1))  # edits from ref[:i] to each hyp[:j]
        for i, r in enumerate(ref, 1):
            prev, row[0] = row[0], i
            for j, h in enumerate(hyp, 1):
                prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (r != h))
        edits += row[-1]
        n_ref += len(ref)
    if n_ref == 0:
        raise DataError("word error rate needs at least one reference word")
    return edits / n_ref
