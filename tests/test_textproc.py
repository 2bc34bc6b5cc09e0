import inspect
import random
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_porter_stem import (_STEP2_RULES, _STEP3_RULES, _STEP4_SUFFIXES,
                                   reference_porter_stem)
from tableqa import textproc
from tableqa.errors import NotText
from tableqa.textproc import (
    STOPWORDS,
    TokenList,
    compile_pattern,
    parse_number,
    pattern_distance,
    porter_stem,
    read_lines,
    read_text,
    token_starts,
    tokenize,
    write_if_changed,
)


def brute_force_distance(a, b):
    # independent recursive oracle, memoized to stay tractable on short strings
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = go(i - 1, j - 1) + (a[i - 1] != b[j - 1])
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1, sub)

    return go(len(a), len(b))


def reference_edit_distance(a: str, b: str) -> int:
    """The row-by-row DP that ``pattern_distance`` replaced, kept as its oracle."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


# short alphabets make long strings share characters, so the bit vectors
# see runs of matches and mismatches across the 64-bit boundary
_EDIT_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="ab", max_size=150),
    st.text(alphabet="abcdé", min_size=60, max_size=140),
)


class TestTokenize:
    def test_question_with_stopwords_dropped(self):
        tl = tokenize("What is NAIRU?", drop_stopwords=True)
        assert tl.tokens == ("nairu",)
        assert tl.stems == ("nairu",)

    def test_empty_input(self):
        tl = tokenize("")
        assert tl.tokens == ()
        assert tl.stems == ()

    def test_non_alphanumeric_split(self):
        assert tokenize("6' 3''").tokens == ("6", "3")

    def test_lowercasing_and_parallel_stems(self):
        tl = tokenize("Presidency Periods")
        assert tl.tokens == ("presidency", "periods")
        assert len(tl.tokens) == len(tl.stems)

    def test_token_charset_invariant(self):
        tl = tokenize("Ünì-codé; 42% of $3.50!!")
        for tok in tl.tokens:
            assert tok == tok.lower()
            assert all(c.isascii() and (c.isdigit() or c.isalpha()) for c in tok)

    def test_idempotent_on_own_output(self):
        texts = [
            "Who is the husband of Whoopi Goldberg?",
            "UFC 200: 6' 3'' / $3.1 billion (2018)",
            "normalized variance of content length",
        ]
        for text in texts:
            once = tokenize(text)
            again = tokenize(" ".join(once.tokens))
            assert again.tokens == once.tokens
            assert again.stems == once.stems

    def test_stopword_removal_happens_before_stemming(self):
        # "this" must not survive as the stem "thi"
        tl = tokenize("this mile", drop_stopwords=True)
        assert tl.tokens == ("mile",)

    def test_digits_are_retained(self):
        assert tokenize("born in 1946", drop_stopwords=True).tokens == ("born", "1946")

    def test_stop_list_size(self):
        assert 100 <= len(STOPWORDS) <= 140

    def test_tokenlist_tokens_in_order(self):
        tl = tokenize("three little words")
        assert tl.tokens == ("three", "little", "words")


class TestTokenStarts:
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from(list("İKΣﬁ aZ9-")), st.characters())))
    def test_tokens_are_tokenize_tokens(self, text):
        starts = token_starts(text)
        assert tuple(t for t, _ in starts) == tokenize(text).tokens
        for _, start in starts:
            assert text[start].lower()[:1].isascii()

    @given(st.text(st.characters(max_codepoint=127)))
    def test_ascii_tokens_start_at_their_original_characters(self, text):
        # the runs of ASCII letters and digits in the original text
        assert token_starts(text) == [(m.group().lower(), m.start())
                                      for m in re.finditer("[A-Za-z0-9]+", text)]


class TestReadLines:
    @pytest.mark.parametrize("data, line, byte", [
        (b"a\nb\n\xff\n", 3, 0xff),
        (b"a\r\nb\r\nc\xffd", 3, 0xff),   # CRLF and CR end lines as open() reads them
        (b"a\rb\r\xff", 3, 0xff),
        (b"\xc3\xa9\n\xc3", 2, 0xc3),      # a multi-byte character cut short
        (b"\xff", 1, 0xff),
    ])
    def test_first_bad_byte_names_its_line(self, tmp_path, data, line, byte):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(NotText) as exc:
            list(read_lines(path))
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text (byte 0x{byte:02x})"

    def test_lines_as_open_yields_them(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes("é,1\r\nb\rc\n".encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert list(read_lines(path)) == list(fh)


class TestReadText:
    def test_text_is_what_open_reads_with_line_ends_kept(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes("\ufeffé,1\r\nb\rc\n".encode("utf-8"))
        with open(path, encoding="utf-8-sig", newline="") as fh:
            assert read_text(path) == fh.read() == "é,1\r\nb\rc\n"

    @pytest.mark.parametrize("data, line", [
        (b"a\r\nb\r\nc\xffd", 3),
        (b"\xef\xbb\xbfa\n\xff", 2),       # after a byte-order mark
    ])
    def test_first_bad_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(NotText) as exc:
            read_text(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text (byte 0xff)"


class TestWriteTextIfChanged:
    TEXT = "é,1\r\nb\n"

    @staticmethod
    def _record_opens(monkeypatch):
        """The (path, mode) of each ``open`` textproc makes, and the size
        of each read of the files it opens."""
        opens, reads = [], []

        class Recorded:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, size=-1):
                reads.append(size)
                return self.fh.read(size)

            def write(self, data):
                return self.fh.write(data)

        def recording(path, mode="r", *args, **kwargs):
            opens.append((path, mode))
            return Recorded(open(path, mode, *args, **kwargs))

        monkeypatch.setattr(textproc, "open", recording, raising=False)
        return opens, reads

    def test_missing_file_is_created(self, tmp_path):
        path = tmp_path / "new.txt"
        assert write_if_changed(path, self.TEXT) is True
        assert path.read_bytes() == self.TEXT.encode("utf-8")

    def test_equal_bytes_are_not_written(self, tmp_path, monkeypatch):
        path = tmp_path / "same.txt"
        path.write_bytes(self.TEXT.encode("utf-8"))
        before = path.stat()
        opens, reads = self._record_opens(monkeypatch)
        assert write_if_changed(path, self.TEXT) is False
        assert opens == [(path, "rb")]
        assert reads == [len(self.TEXT.encode("utf-8")) + 1]
        after = path.stat()
        assert (after.st_mtime_ns, after.st_ino) == \
            (before.st_mtime_ns, before.st_ino)

    @pytest.mark.parametrize("old", [
        "é,1\r\nb\n" + "x" * 100_000,     # the text, then more
        "é,1\r\nb",                        # a prefix of the text
        "é,1\nb\n",                        # other line ends
        "e,1\r\nb\n",
        "",
        "\ufeffé,1\r\nb\n",               # a byte-order mark
    ], ids=["longer", "prefix", "line-ends", "one-character", "empty", "bom"])
    def test_other_bytes_are_replaced(self, tmp_path, monkeypatch, old):
        path = tmp_path / "old.txt"
        path.write_bytes(old.encode("utf-8"))
        opens, reads = self._record_opens(monkeypatch)
        assert write_if_changed(path, self.TEXT) is True
        assert path.read_bytes() == self.TEXT.encode("utf-8")
        assert opens == [(path, "rb"), (path, "wb")]
        assert reads == [len(self.TEXT.encode("utf-8")) + 1]

    def test_bytes_are_written_as_given(self, tmp_path):
        path = tmp_path / "f.bin"
        data = b"\x00\xff" + self.TEXT.encode("utf-8")
        assert write_if_changed(path, data) is True
        assert path.read_bytes() == data
        assert write_if_changed(path, data) is False
        assert write_if_changed(path, self.TEXT) is True
        assert path.read_bytes() == self.TEXT.encode("utf-8")

    def test_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_if_changed(tmp_path, self.TEXT)

    @settings(max_examples=200)
    @given(st.text(max_size=12), st.one_of(st.none(), st.text(max_size=12)))
    def test_file_holds_the_text_afterwards(self, text, old):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            if old is not None:
                path.write_bytes(old.encode("utf-8"))
            wrote = write_if_changed(path, text)
            assert path.read_bytes() == text.encode("utf-8")
            assert wrote is (old is None or old.encode("utf-8")
                             != text.encode("utf-8"))


def distance(a: str, b: str) -> int:
    return pattern_distance(compile_pattern(a), b)


class TestEditDistance:
    def test_kitten_sitting(self):
        assert distance("kitten", "sitting") == 3

    def test_identity(self):
        for x in ["", "a", "mile", "washington"]:
            assert distance(x, x) == 0

    def test_pure_insertions(self):
        assert distance("", "abc") == 3

    def test_matches_brute_force_and_metric_axioms(self):
        rng = random.Random(20260810)
        alphabet = "abc"
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 7)))
                 for _ in range(40)]
        for a in words[:20]:
            for b in words[20:]:
                d = distance(a, b)
                assert d == brute_force_distance(a, b)
                assert d == distance(b, a)
                assert (d == 0) == (a == b)
        # triangle inequality on sampled triples
        for _ in range(200):
            a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
            assert distance(a, c) <= distance(a, b) + distance(b, c)


class TestPatternDistance:
    # the compiled word may be the shorter or the longer string, or empty

    @settings(max_examples=400, deadline=None)
    @given(_EDIT_TEXT, _EDIT_TEXT)
    @example("", "")
    @example("", "abc")
    @example("abc", "")
    @example("a" * 70, "b")
    @example("", "a" * 70)
    @example("kitten", "sitting")
    @example("population", "populated")
    @example("a" * 64 + "b", "b" + "a" * 64)
    @example("ab" * 40, "ba" * 41)
    def test_both_directions_equal_the_dp_reference(self, a, b):
        want = reference_edit_distance(a, b)
        assert pattern_distance(compile_pattern(a), b) == want
        assert pattern_distance(compile_pattern(b), a) == want

    def test_one_compiled_word_against_many_texts(self):
        pattern = compile_pattern("capital")
        for text in ["capitol", "", "capital", "cap", "washington", "capitals"]:
            assert pattern_distance(pattern, text) \
                == reference_edit_distance("capital", text)

    def test_compiled_form(self):
        assert compile_pattern("") == ({}, 0, 0)
        assert compile_pattern("aba") == ({"a": 0b101, "b": 0b010}, 3, 0b100)
        assert pattern_distance(compile_pattern(""), "abcd") == 4


# A stem of letters that makes every consonant/vowel pattern (y among
# them), and suffixes that fire every branch of every step: plurals, -eed,
# -ed/-ing with each of their repairs (-at/-bl/-iz, a doubled consonant,
# l/s/z doubled), a final y after a vowel and after a consonant, each rule
# of steps 2-4 (-ion after s/t and after other letters), -e and -ll.
_STEM = st.text(alphabet="bcdfhlmnprstvwxzaeiouy", max_size=6)
_RULE_SUFFIXES = sorted({
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "ated", "bling", "izing",
    "bbed", "dding", "tted", "lled", "ssing", "zzed", "y", "ay", "ty",
    "sion", "tion", "xion", "e", "ll",
    *(suffix for suffix, _ in _STEP2_RULES + _STEP3_RULES),
    *_STEP4_SUFFIXES,
})


class TestPorterStemmer:
    # classic pairs hand-traced through the published rule set
    KNOWN = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "caress": "caress",
        "cats": "cat",
        "feed": "feed",
        "agreed": "agre",
        "plastered": "plaster",
        "bled": "bled",
        "motoring": "motor",
        "sing": "sing",
        "conflated": "conflat",
        "troubled": "troubl",
        "sized": "size",
        "hopping": "hop",
        "tanned": "tan",
        "falling": "fall",
        "hissing": "hiss",
        "fizzed": "fizz",
        "failing": "fail",
        "filing": "file",
        "happy": "happi",
        "sky": "sky",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "digitizer": "digit",
        "operator": "oper",
        "feudalism": "feudal",
        "hopefulness": "hope",
        "formaliti": "formal",
        "formative": "form",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "revival": "reviv",
        "adjustable": "adjust",
        "irritant": "irrit",
        "replacement": "replac",
        "adoption": "adopt",
        "cease": "ceas",
        "controll": "control",
        "roll": "roll",
        "mile": "mile",
        "president": "presid",
        "presidents": "presid",
        "capital": "capit",
    }

    def test_known_pairs(self):
        for word, expected in self.KNOWN.items():
            assert porter_stem(word) == expected, word

    def test_short_words_untouched(self):
        for w in ["a", "is", "by", "tv"]:
            assert porter_stem(w) == w

    def test_never_lengthens_on_stop_list(self):
        for word in STOPWORDS:
            assert len(porter_stem(word)) <= len(word), word

    def test_digit_tokens_pass_through(self):
        assert porter_stem("1946") == "1946"

    def test_fixture_vocabulary_matches_the_reference(self, corpus, manifest,
                                                       pipeline_store):
        texts = [e.question for e in manifest] + list(pipeline_store.rows)
        for table in corpus.values():
            texts += [table.name, *table.headers, *(c for row in table.rows for c in row)]
        vocabulary = {w for text in texts for w in textproc.words(text)}
        assert len(vocabulary) > 500
        assert [w for w in sorted(vocabulary)
                if porter_stem(w) != reference_porter_stem(w)] == []

    @settings(max_examples=600, deadline=None)
    @given(st.text())
    @example("employment")      # a y between vowels is a consonant
    @example("sensible")        # step 4 needs m > 1
    def test_any_text_matches_the_reference(self, text):
        assert porter_stem.__wrapped__(text) == reference_porter_stem(text)

    @settings(max_examples=1500, deadline=None)
    @given(_STEM, st.lists(st.sampled_from(_RULE_SUFFIXES), min_size=1, max_size=2))
    def test_rule_suffixes_match_the_reference(self, stem, suffixes):
        word = stem + "".join(suffixes)
        assert porter_stem.__wrapped__(word) == reference_porter_stem(word)

    def test_wrapped_is_the_uncached_stemmer(self):
        # porter_stem stays a plain function (the span tracer wraps those);
        # __wrapped__ stems the word anew on each call
        uncached = porter_stem.__wrapped__
        assert inspect.isfunction(porter_stem) and inspect.isfunction(uncached)
        assert not hasattr(uncached, "__wrapped__")
        for word in [*self.KNOWN, "enjoyable", "annoyance", "sensible"]:
            assert uncached(word) == reference_porter_stem(word), word
        word = "hopefulnesses"
        assert porter_stem(word) is porter_stem(word)
        assert uncached(word) is not uncached(word)


# The two number parsers that parse_number replaced, verbatim: query's
# comparison/ORDER BY parser and typerec's numeric-cell feature.

def reference_parse_number(text: str) -> float | None:
    cleaned = text.strip().replace(",", "")
    if not any(c.isdigit() for c in cleaned):
        return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def reference_parses_as_number(cell: str) -> bool:
    text = cell.strip().replace(",", "")
    if not any(c.isdigit() for c in text):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


_NUMBER_PIECES = st.one_of(
    st.sampled_from(["0", "1", "7", "42", "1946", "3.5", ".", ",", "+", "-", "e",
                     "E", "e-", "nan", "NaN", "inf", "-inf", "Infinity", " ", "\t",
                     "_", "%", "$", "x", "\u0663", "\u00b2"]),
    st.text(alphabet="0123456789,.+-eE ", max_size=4),
)


class TestParseNumber:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_NUMBER_PIECES, max_size=6).map("".join))
    @example("1,234.5")
    @example(" -1e3 ")
    @example("1e")
    @example("nan")
    @example("inf1")
    @example(",,")
    def test_matches_both_replaced_parsers(self, text):
        got = parse_number(text)
        assert repr(got) == repr(reference_parse_number(text))
        assert (got is not None) == reference_parses_as_number(text)

    def test_examples(self):
        assert parse_number(" 1,234.5 ") == 1234.5
        assert parse_number("-3e2") == -300.0
        assert parse_number("inf") is None
        assert parse_number("12 apples") is None
