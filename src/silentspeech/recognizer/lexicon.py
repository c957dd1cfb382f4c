"""Pronunciation lexicon: word -> phone-index sequence + syllable count.

Text format, one entry per line: ``word<TAB>syllables<TAB>phone phone ...``
with phone symbols resolved against the manifest phone inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import DataError, read_text


@dataclass
class Lexicon:
    phones: list[str]
    entries: dict[str, tuple[int, ...]]  # word -> phone indices
    syllables: dict[str, int]

    def __post_init__(self) -> None:
        n = len(self.phones)
        for word, seq in self.entries.items():
            if not seq:
                raise DataError(f"lexicon entry {word!r} has no phones")
            if any(p < 0 or p >= n for p in seq):
                raise DataError(f"lexicon entry {word!r} has phone index outside inventory")
            if self.syllables.get(word, 0) < 1:
                raise DataError(f"lexicon entry {word!r} needs a syllable count >= 1")
        orphans = self.syllables.keys() - self.entries.keys()
        if orphans:
            raise DataError(f"syllable counts for words with no lexicon entry: {sorted(orphans)}")

    @property
    def words(self) -> list[str]:
        return sorted(self.entries)

    def phones_for(self, words: list[str]) -> list[int]:
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
        lines.append(f"{word}\t{lexicon.syllables[word]}\t{phones}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lexicon(path: str | Path, phones: list[str]) -> Lexicon:
    index = {p: i for i, p in enumerate(phones)}
    entries: dict[str, tuple[int, ...]] = {}
    syllables: dict[str, int] = {}
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        word, syll, phone_str = parts
        if word in entries:
            raise DataError(f"{path}:{lineno}: word {word!r} is listed twice")
        try:
            syllables[word] = int(syll)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad syllable count {syll!r}") from exc
        if syllables[word] < 1:
            raise DataError(f"{path}:{lineno}: syllable count must be >= 1, got {syll!r}")
        symbols = phone_str.split()
        if not symbols:
            raise DataError(f"{path}:{lineno}: word {word!r} has no phones")
        seq = []
        for sym in symbols:
            if sym not in index:
                raise DataError(f"{path}:{lineno}: unknown phone {sym!r}")
            seq.append(index[sym])
        entries[word] = tuple(seq)
    return Lexicon(phones=list(phones), entries=entries, syllables=syllables)
