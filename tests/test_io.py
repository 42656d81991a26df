import os
import random
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from covprune import ParseError, parse_instance, read_instance
from covprune.cli import main
from covprune.io import Record

from conftest import generate_instance, pairs_of
from reference_kernels import parse_lines


PLAIN = """\
# a comment
0 8
0 2

2 6
"""

BED = """\
chr2\t5\t9
chr1\t0\t4
chr2\t6\t12
"""


def test_parse_plain():
    inst = parse_instance(PLAIN)
    assert inst.records == (Record(None, 0, 8), Record(None, 0, 2), Record(None, 2, 6))


def test_parse_bed3():
    inst = parse_instance(BED)
    assert inst.records[0] == Record("chr2", 5, 9)
    groups = inst.chromosomes()
    assert set(groups) == {"chr1", "chr2"}
    ivs, indices = groups["chr2"]
    assert indices.tolist() == [0, 2]
    assert pairs_of(ivs) == [(5, 9), (6, 12)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("0 5\nx 5\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("0 5\n1 6\n7 7\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("1 2 3 4\n")
    with pytest.raises(ParseError, match="negative"):
        parse_instance("chr1 -3 5\n")
    # the first data line sets the field count for every line after it
    with pytest.raises(ParseError, match="line 2: plain format needs 2 fields, got 3"):
        parse_instance("3 9\nchr1 4 5\n")


def test_generate_instance_deterministic():
    a = generate_instance(6, 1000, seed=42)
    b = generate_instance(6, 1000, seed=42)
    assert a == b
    assert generate_instance(6, 1000, seed=43) != a


def test_generate_instance_valid():
    ivs = generate_instance(500, 1000, seed=7)
    assert len(ivs) == 500
    for start, end in pairs_of(ivs):
        assert 0 <= start < end <= 1000
        assert end - start <= 100
    with pytest.raises(ValueError):
        generate_instance(0, 1000, seed=1)


def _outcome(parse):
    """(records, each record's line as (offset, length) in the input
    bytes) of a parse, or the type and message of its error;
    ParseError and UnicodeDecodeError are both ValueErrors."""
    try:
        inst = parse()
    except ValueError as exc:
        return type(exc), str(exc)
    return inst.records, list(zip(inst.line_at.tolist(), inst.line_len.tolist()))


def _holds_a_dropped_form(text: str) -> bool:
    """Whether `text`, its bytes that are not UTF-8 read as surrogate
    escapes, holds a form the reference reads only through Python's
    int, str.split and str.splitlines: a line break of splitlines' own
    or a control character anywhere, a Unicode blank outside a comment,
    a coordinate such as +5, 1_000, -0 or a non-ASCII digit; or a byte
    that is not UTF-8 inside a comment, which the reader skips."""
    if re.search("[\x00-\x08\x0b-\x0c\x0e-\x1f\x7f\x85\u2028\u2029]", text):
        return True
    for line in text.splitlines():
        if line.lstrip(" \t").startswith("#"):
            if re.search("[\udc80-\udcff]", line):
                return True
        elif re.search("[^\\S \t]", line):
            return True
        else:
            for token in line.split()[-2:]:
                try:
                    if int(token) >= 0 and not (token.isascii() and token.isdigit()):
                        return True
                except ValueError:
                    pass
    return False


NUMBERS = ["0", "5", "9", "12", "40", "007", "+5", "1_000", "٣", "-1", "-0",
           str(2**64 - 1), str(2**64), str(2**65), "1e3", "x"]
NAMES = ["chr1", "chr2", "chrX", "c#1", "ñ", "7"]
SEPS = [" ", "\t", "  ", " \t "]
# characters str.splitlines or str.split take for line breaks or blanks,
# a NUL, and a byte that is not UTF-8 (as a surrogate escape)
ODD_CHARS = ["\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\xa0", "\x00", "\udcff"]
# a shuffled BED3 file: most lines start a new run of one name, and the
# names are 1 to 12 bytes long
_rng = random.Random(41)
SHUFFLED = "".join(f"{_rng.choice(['c', 'chr1', 'chr2', 'chr10', 'chrUn_gl0002'])}\t{s}\t"
                   f"{s + _rng.randint(1, 50)}\n"
                   for s in (_rng.randrange(10**6) for _ in range(2000))).encode()


@st.composite
def instance_bytes(draw):
    """Mostly regular BED3 or plain text, with irregular lines and
    tokens mixed in."""
    width = draw(st.sampled_from([2, 3]))

    def rare(common, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 14)) == 0 else common

    def data_line():
        start = rare(str(draw(st.integers(0, 60))), NUMBERS)
        end = str(int(start) + draw(st.integers(1, 30))) if start.isdigit() else "9"
        fields = [rare("chr1", NAMES)] * (width == 3) + [start, rare(end, NUMBERS)]
        lead, trail = rare("", [" ", "\t"]), rare("", [" "])
        return lead + "".join(f + rare("\t", SEPS) for f in fields[:-1]) + fields[-1] + trail

    odd = ["", "   ", "# a comment", "#0 5", "# 0 5", "#chr1 0 5", "chr1 0 5 chr1 6 9", "0 5 6",
           "0 5", "chr1 0", "0 5 6 9 10 11"]
    lines = [rare(data_line(), odd) for _ in range(draw(st.integers(1, 12)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_CHARS)) + text[at:]
    return text.encode(errors="surrogateescape")


@settings(max_examples=300, deadline=None)
@given(instance_bytes())
@example(b"chr1 0 5\n\n#chr1 0 5\nchr1 2 9\n")
@example(b"# a comment\n0 5\n")
@example(b"chr1 0 5\nchr1 0 5 chr1 6 9\n\n")  # 3 lines and 9 tokens, like 3 BED3 lines
@example(b"0 5\r\n2 9\r\n3 7")
@example(b"chr1\t0 5\nchr2  2\t9\n")
@example(b"chr1 007 +9\nchr1 1_000 2000\n")
@example("chr1 \u0663 9\n".encode())
@example(b"0 18446744073709551615\n0 18446744073709551616\n")
@example(b"chr1 -1 5\n")
@example(b"chr1 5 5\n")
@example(b"0 5\n")
@example(b"chr1 0 5\n")
@example(b"c\x0b0 5\n")
@example(b"chr1 0 5\nchr\xff 0 5\n")
@example(b"0 5\r2 9\n")  # a lone carriage return
@example(b"0 5\r\n2 9\r")
@example(b"0 18446744073709551615\n")
@example(b"0 18446744073709551616\n")
@example(b"0000000000000000000000005 0000000000000000000000009\n")
@example(b"chr1 0 5\x00\n")
@example(b"chr1\x000 5\n")
@example(b"chr1 0 5\nchr1 2 9")  # no final newline
@example(b"chr1 0 5\n\n \t\nchr2 2 9\n\n")  # blank lines between runs
@example(b"chr1 0 5\nchr10 1 6\nchr1 2 7\nchr1 3 8\n")  # one name a prefix of another
@example(b"chr2 0 5\nchr1 1 6\nchr2 2 7\n")  # a name recurs after another
@example(SHUFFLED)
@example(b"chr1 2 9 \t\r\n\tchr1 0 5\n")
@example(b"chr1 +5 9\n")
@example(b"# track name=reads\nchr1\t0\t5\nchr1\t2\t9\n")  # a '#' first line
@example(b"chr1 0 5\n# chr2 follows\nchr2 1 6\n#\nchr1 2 7\n")  # '#' lines between runs
@example(b"chr1 0 5\rchr1 2 9\r\rchr2 1 4\r")  # lone carriage returns alone
@example(b"chr\xc2\xa0x 0 5\n")  # a name holding U+00A0
@example(b"c#1 0 5\nc#1 2 9\n")
@example(b"chr1 0 5\nchr1 9 2")  # a bad last line without a terminator
@example(b"# \xff\xfe\nchr1 0 5\n")  # a comment that is not UTF-8
@example(b"# only\n\n  # comments\n")
@example(b"#c\x0b0 5\n")  # a comment that Python's splitlines breaks into two lines
@example("#c\u20280 5\n".encode())
# +0 and +5 among comments, CRLF and a non-ASCII name
@example(b"# reads\n0 10\n+0 10\n\n 0 +10  \n2 8\r\n#0 10\n100 110")
@example("#c\nchr\u00e9\t0\t10\nchr\u00e9 0 10\r\nchr1\t+5\t9\n".encode())
def test_bulk_parser_agrees_with_line_parser(data):
    """The reader against the reference `parse_lines`: (a) on inputs
    without a dropped form, the same instance or the same error; (b) a
    dropped form the reference accepts is a ParseError; (c) an input
    the reader accepts, the reference accepts alike."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reads")
        with open(path, "wb") as fh:
            fh.write(data)
        got = _outcome(lambda: read_instance(path))
    want = _outcome(lambda: parse_lines(data.decode("utf-8")))
    text = data.decode("utf-8", "surrogateescape")
    if not _holds_a_dropped_form(text):
        assert got == want
    elif isinstance(want[0], tuple):
        assert got[0] is ParseError, (got, want)
    if isinstance(got[0], tuple):
        # a byte that is not UTF-8 can only be in a comment here: as '?', one byte
        # like it, it leaves every line's length
        assert got == _outcome(lambda: parse_lines(re.sub("[\udc80-\udcff]", "?", text)))


def test_lone_carriage_returns_end_lines(tmp_path, capsys):
    text = "".join(f"chr1\t{i}\t{i + 5}\r" for i in range(100))
    path = tmp_path / "reads.bed"
    path.write_bytes(text.encode())
    inst = read_instance(str(path))
    assert inst.records == tuple(Record("chr1", i, i + 5) for i in range(100))
    assert main(["approx", str(path), "--k", "5", "--stats", os.devnull]) == 0
    assert capsys.readouterr().out == text  # every line kept, as written


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "reads.bed"
    path.write_bytes(b"chr1\t0\t5\nchr\xff\t0\t5\n")
    assert main(["approx", str(path), "--k", "1"]) == 2
    assert "utf-8" in capsys.readouterr().err
