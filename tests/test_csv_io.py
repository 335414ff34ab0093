"""``csv_text`` against ``csv.writer``, whose text it must give byte for byte."""
import csv
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyblock.csv_io import csv_text


def writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def outcome(write, header, rows):
    """The text, or the type of the exception raised instead."""
    try:
        return write(header, rows)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


# text that needs quoting or not: commas, quotes, carriage returns, newlines,
# NUL and non-ASCII characters, empty strings, and any character at all
SPECIAL = st.text(st.sampled_from([",", '"', "\r", "\n", "\0", "a", " ", "é", "中"]), max_size=5)
# commas only, so the lines that hold one are quoted and the rest joined
COMMAS = st.text(st.sampled_from([",", "a", " ", "é"]), max_size=4)
PLAIN = st.text(st.characters(blacklist_characters=',"\r\n\0'), max_size=6)
TEXT = SPECIAL | COMMAS | PLAIN | st.text(max_size=4)
FIELDS = (
    TEXT | st.integers() | st.floats() | st.none()
    | st.floats().map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
LINES = (
    st.lists(FIELDS, max_size=5)
    | st.lists(TEXT, max_size=5)
    | st.lists(PLAIN, min_size=2, max_size=5)
    | st.lists(COMMAS | PLAIN, min_size=2, max_size=5).map(tuple)
)


class TestCsvText:
    @settings(max_examples=500, deadline=None)
    @given(LINES, st.lists(LINES, max_size=8))
    @example(("x", "y"), [["a,b", "c"], ["d", "e"], ["f"], [], [""], ["", ""]])
    @example(("x", "y"), [["a\rb", "c"], ["d", "\0"]])
    @example(("x", "y"), [["a\nb", "c"], ["d", "e"]])
    @example(("x", "y"), [[1, 2.5], [None, np.float64(0.1)], [np.int64(-3), "z"]])
    @example(("x", "y"), [5])
    @example((), [])
    def test_same_text_as_csv_writer(self, header, rows):
        assert outcome(csv_text, header, rows) == outcome(writer_text, header, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(PLAIN, min_size=2, max_size=5), max_size=8))
    def test_plain_text_is_joined(self, rows):
        text = csv_text(("a", "b"), rows)
        assert text == "".join(",".join(line) + "\n" for line in [("a", "b"), *rows])
        assert text == writer_text(("a", "b"), rows)
