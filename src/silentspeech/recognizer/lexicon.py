"""Pronunciation lexicon: word -> phone-index sequence.

Text format, one entry per line: ``word<TAB>phone phone ...``
with phone symbols resolved against the manifest phone inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from ..errors import DataError, UsageError, read_text


@dataclass
class Lexicon:
    phones: list[str]
    entries: dict[str, tuple[int, ...]]  # word -> phone indices

    def __post_init__(self) -> None:
        n = len(self.phones)
        for word, seq in self.entries.items():
            # decode would emit such a word, and no prompt split into words holds it
            if not isinstance(word, str) or not word or word != word.strip():
                raise DataError(f"lexicon word {word!r} must be a nonempty string "
                                f"with no surrounding whitespace")
            if not seq:
                raise DataError(f"lexicon entry {word!r} has no phones")
            wrong = [p for p in seq if isinstance(p, bool) or not isinstance(p, Integral)]
            if wrong:
                raise DataError(f"lexicon entry {word!r} has phone index {wrong[0]!r}, "
                                "not an integer")
            if any(p < 0 or p >= n for p in seq):
                raise DataError(f"lexicon entry {word!r} has phone index outside inventory")

    @property
    def words(self) -> list[str]:
        return sorted(self.entries)

    def phones_for(self, words: list[str]) -> list[int]:
        """The phone indices of ``words`` in order; UsageError for a string,
        which would iterate as its characters, and DataError naming a word
        outside the lexicon."""
        if isinstance(words, str):
            raise UsageError(f"phones_for needs a list of words, not the string {words!r}")
        seq: list[int] = []
        for w in words:
            if w not in self.entries:
                raise DataError(f"word {w!r} not in lexicon")
            seq.extend(self.entries[w])
        return seq


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    lines = []
    for word in lexicon.words:
        phones = " ".join(lexicon.phones[i] for i in lexicon.entries[word])
        lines.append(f"{word}\t{phones}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lexicon(path: str | Path, phones: list[str]) -> Lexicon:
    index = {p: i for i, p in enumerate(phones)}
    entries: dict[str, tuple[int, ...]] = {}
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        word, phone_str = parts
        if word in entries:
            raise DataError(f"{path}:{lineno}: word {word!r} is listed twice")
        symbols = phone_str.split()
        if not symbols:
            raise DataError(f"{path}:{lineno}: word {word!r} has no phones")
        seq = []
        for sym in symbols:
            if sym not in index:
                raise DataError(f"{path}:{lineno}: unknown phone {sym!r}")
            seq.append(index[sym])
        entries[word] = tuple(seq)
    return Lexicon(phones=list(phones), entries=entries)
