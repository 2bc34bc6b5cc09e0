"""Deterministic text normalization shared by every pipeline stage.

Tokenization lowercases and splits on maximal runs of non-alphanumeric
characters, optionally removes stop words, and stems with an in-repo
Porter stemmer so results are reproducible byte-for-byte with no
external NLP dependency. The stop list ships as a text resource
(``data/stopwords.txt``, one word per line). Every input file is read
through ``read_lines`` or ``read_text``, which turn bytes that are not
UTF-8 into an error naming the file and line; every workspace file is
written through ``write_if_changed``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources

from .errors import NotText

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


def write_if_changed(path, content: str | bytes) -> bool:
    """Make ``path`` hold ``content`` (a text as UTF-8, or bytes); True when
    it was written.

    A file that already holds exactly those bytes is not opened for
    writing, so it keeps its mtime. At most ``len(bytes) + 1`` bytes of it
    are read. A missing file is created.
    """
    data = content.encode("utf-8") if isinstance(content, str) else content
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


# ---------------------------------------------------------------------------
# Porter stemmer
#
# Implemented from the published suffix-stripping algorithm (Porter, 1980);
# words of length <= 2 are returned unchanged, as in the reference
# implementation. Each rule's condition is a string test on the
# consonant/vowel pattern (``_cv``) of the stem it would leave: m, the number
# of VC sequences in [C](VC)^m[V], is its count of "vc"; *v* is a "v" in it;
# *o is an end in "cvc" whose last letter is not w, x or y.
# ---------------------------------------------------------------------------


def _cv(word: str) -> str:
    """``word`` as one ``c`` or ``v`` per character: a, e, i, o and u are
    vowels, and so is a y after a consonant; all else is a consonant."""
    pattern = ""
    for ch in word:
        pattern += "v" if ch in "aeiou" or ch == "y" and pattern[-1:] == "c" else "c"
    return pattern


def _rule_table(rules: str) -> dict[str, list[tuple[str, str]]]:
    """``suffix:replacement`` rules (a bare suffix is removed), keyed by the
    suffix's last letter, longest suffix first."""
    table: dict[str, list[tuple[str, str]]] = {}
    for rule in sorted(rules.split(), key=lambda r: -len(r.partition(":")[0])):
        suffix, _, replacement = rule.partition(":")
        table.setdefault(suffix[-1], []).append((suffix, replacement))
    return table


# Steps 2, 3 and 4, each with the m that its stems must exceed. The first of
# a step's rules whose suffix the word ends with is the step's one candidate.
_STEPS_2_TO_4 = (
    (0, _rule_table("ational:ate tional:tion enci:ence anci:ance izer:ize abli:able "
                    "alli:al entli:ent eli:e ousli:ous ization:ize ation:ate ator:ate "
                    "alism:al iveness:ive fulness:ful ousness:ous aliti:al iviti:ive "
                    "biliti:ble")),
    (0, _rule_table("icate:ic ative: alize:al iciti:ic ical:ic ful: ness:")),
    (1, _rule_table("al ance ence er ic able ible ant ement ment ent ion ou ism ate "
                    "iti ous ive ize")),
)
# after step 1, a word that ends in any other letter is its own stem
_RULE_ENDINGS = frozenset().union(*(table for _, table in _STEPS_2_TO_4))


def _memoized(stem):
    """Cache a pure word -> stem function for the life of the process; the
    cache grows with the vocabulary seen. The result stays a plain function
    (``__wrapped__`` is the uncached one), so tools that find functions by
    type still see it."""
    cached = functools.lru_cache(maxsize=None)(stem)

    @functools.wraps(stem)
    def memoized(word: str) -> str:
        return cached(word)

    return memoized


@_memoized
def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    if word.endswith(("sses", "ies")):                          # step 1a
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    if word.endswith("eed"):                                    # step 1b
        if _cv(word[:-3]).count("vc"):
            word = word[:-1]
    elif word.endswith(("ed", "ing")):
        stem = word[:-2] if word.endswith("ed") else word[:-3]
        pattern = _cv(stem)
        if "v" in pattern:
            word = stem
            if stem.endswith(("at", "bl", "iz")):
                word = stem + "e"
            elif stem[-1] == stem[-2:-1] and pattern[-1] == "c" and stem[-1] not in "lsz":
                word = stem[:-1]
            elif pattern.count("vc") == 1 and pattern.endswith("cvc") \
                    and stem[-1] not in "wxy":
                word = stem + "e"
    if word.endswith("y") and "v" in _cv(word[:-1]):            # step 1c
        word = word[:-1] + "i"
    if word[-1] not in _RULE_ENDINGS:
        return word
    for bound, table in _STEPS_2_TO_4:
        for suffix, replacement in table.get(word[-1], ()):
            if word.endswith(suffix):
                stem = word[:len(word) - len(suffix)]
                if (_cv(stem).count("vc") > bound
                        and (suffix != "ion" or stem.endswith(("s", "t")))):
                    word = stem + replacement
                break
    if word.endswith("e"):                                      # step 5a
        pattern = _cv(word[:-1])
        m = pattern.count("vc")
        if m > 1 or m == 1 and not (pattern.endswith("cvc") and word[-2] not in "wxy"):
            word = word[:-1]
    if word.endswith("ll") and _cv(word).count("vc") > 1:       # step 5b
        word = word[:-1]
    return word
