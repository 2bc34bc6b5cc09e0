"""Deterministic text normalization shared by every pipeline stage.

Tokenization lowercases and splits on maximal runs of non-alphanumeric
characters, optionally removes stop words, and stems with an in-repo
Porter stemmer so results are reproducible byte-for-byte with no
external NLP dependency. The stop list ships as a text resource
(``data/stopwords.txt``, one word per line). Every input file is read
through ``read_lines`` or ``read_text``, which turn bytes that are not
UTF-8 into an error naming the file and line; every workspace file is
written through ``write_text_if_changed``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources

from .errors import BothEmpty, NotText

_WORD = re.compile(r"[a-z0-9]+")
_NEWLINE = re.compile(r"\r\n?|\n")


def _load_stopwords() -> frozenset[str]:
    text = resources.files("tableqa").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


STOPWORDS = _load_stopwords()


def read_lines(path):
    """The lines of the UTF-8 text file ``path``, as ``open(path)`` yields
    them.

    A leading byte-order mark is dropped. Bytes that are not UTF-8 raise
    NotText naming ``path:line``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise NotText(_not_utf8(path, fh.read())) from None


def read_text(path) -> str:
    """The whole UTF-8 text file ``path``, read and decoded at once, its
    line ends as they are in the file.

    A leading byte-order mark is dropped. Bytes that are not UTF-8 raise
    NotText naming ``path:line``, as ``read_lines`` does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise NotText(_not_utf8(path, data)) from None


def write_text_if_changed(path, text: str) -> bool:
    """Make ``path`` hold ``text`` as UTF-8; True when it was written.

    A file that already holds exactly those bytes is not opened for
    writing, so it keeps its mtime. At most ``len(bytes) + 1`` bytes of it
    are read. A missing file is created.
    """
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return False
    except FileNotFoundError:
        pass
    with open(path, "wb") as fh:
        fh.write(data)
    return True


def _not_utf8(path, data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_NEWLINE.findall(data[:exc.start].decode("utf-8"))) + 1
        return f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
    return f"{path}: not UTF-8 text"    # the file changed while it was read


@dataclass(frozen=True)
class TokenList:
    """Parallel lists of lowercase surface tokens and their stems."""

    tokens: tuple[str, ...]
    stems: tuple[str, ...]


def tokenize(text: str, drop_stopwords: bool = False) -> TokenList:
    """Lowercase, split on non-alphanumeric runs, optionally drop stop words, stem.

    Stop words are removed before stemming, so a stop word whose stem
    collides with a content word is still dropped. Digits are retained:
    cells like "1946" survive as tokens.
    """
    parts = words(text, drop_stopwords)
    return TokenList(tokens=tuple(parts), stems=tuple(porter_stem(p) for p in parts))


def token_starts(text: str) -> list[tuple[str, int]]:
    """``tokenize(text).tokens``, each with the index in ``text`` of the
    character it starts at (a character may lowercase to several)."""
    chars = [c.lower() for c in text]
    lowered = "".join(chars)
    origin = [i for i, low in enumerate(chars) for _ in low]
    return [(m.group(), origin[m.start()]) for m in _WORD.finditer(lowered)]


def words(text: str, drop_stopwords: bool = False) -> list[str]:
    """``tokenize(text, drop_stopwords).tokens`` as a list, without stemming."""
    parts = _WORD.findall(text.lower())
    if drop_stopwords:
        parts = [p for p in parts if p not in STOPWORDS]
    return parts


def parse_number(text: str) -> float | None:
    """``text`` as a float, commas dropped; None unless it has a digit and parses."""
    cleaned = text.strip().replace(",", "")
    try:
        return float(cleaned) if any(c.isdigit() for c in cleaned) else None
    except ValueError:
        return None


def compile_pattern(word: str) -> tuple[dict[str, int], int, int]:
    """``word`` in the form ``pattern_distance`` reads: per character, the
    mask of the positions it holds; the length; the mask of the last position."""
    masks: dict[str, int] = {}
    for i, c in enumerate(word):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks, len(word), (1 << len(word)) >> 1


def pattern_distance(pattern: tuple[dict[str, int], int, int], text: str) -> int:
    """Levenshtein distance (unit-cost insert, delete, substitute) from the
    ``compile_pattern`` word to ``text``.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 form for edit distance):
    bit ``i`` of the vertical delta vectors ``pv``/``mv`` is +1/-1 between
    rows ``i`` and ``i + 1`` of the DP column for the pattern, and each
    character of ``text`` advances the whole column in a few integer
    operations. Python ints make it exact for any length, so either string
    may be the pattern.
    """
    masks, length, last = pattern
    if not length:
        return len(text)
    pv, mv = (1 << length) - 1, 0
    distance = length
    for ca in text:
        eq = masks.get(ca, 0)
        d0 = (((eq & pv) + pv) ^ pv) | eq | mv
        ph = mv | ~(d0 | pv)
        mh = pv & d0
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        pv = (mh << 1) | ~(d0 | ph)
        mv = ph & d0
    return distance


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, with the shorter string as the pattern."""
    if len(a) < len(b):
        a, b = b, a
    return pattern_distance(compile_pattern(b), a)


def normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance divided by the longer length; undefined for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        raise BothEmpty("normalized edit distance of two empty strings")
    return edit_distance(a, b) / longest


# ---------------------------------------------------------------------------
# Porter stemmer
#
# Implemented from the published suffix-stripping algorithm (Porter, 1980).
# Words of length <= 2 are returned unchanged, as in the reference
# implementation.
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of VC sequences in [C](VC)^m[V]
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


def _replace_suffix(word: str, suffix: str, replacement: str) -> str:
    return word[: len(word) - len(suffix)] + replacement


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return _replace_suffix(word, "sses", "ss")
    if word.endswith("ies"):
        return _replace_suffix(word, "ies", "i")
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

# Longest suffix first; the sorts are stable, so equal lengths keep the
# order listed above.
_STEP2_RULES = tuple(sorted(_STEP2_RULES, key=lambda r: -len(r[0])))
_STEP3_RULES = tuple(sorted(_STEP3_RULES, key=lambda r: -len(r[0])))
_STEP4_SUFFIXES = tuple(sorted(_STEP4_SUFFIXES, key=len, reverse=True))


def _apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure - 1:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def _memoized(stem):
    """Cache a pure word -> stem function for the life of the process.

    The cache grows with the vocabulary seen. The result stays a plain
    function (``__wrapped__`` is the uncached one), so tools that find
    functions by type still see it.
    """
    cached = functools.lru_cache(maxsize=None)(stem)

    @functools.wraps(stem)
    def memoized(word: str) -> str:
        return cached(word)

    return memoized


@_memoized
def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES, 1)
    word = _apply_rules(word, _STEP3_RULES, 1)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
