import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from covprune import Interval, ParseError, io, parse_instance, read_instance
from covprune.cli import main
from covprune.io import Record

from conftest import generate_instance


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
    assert inst.fmt == "plain"
    assert inst.records == (Record(None, 0, 8), Record(None, 0, 2), Record(None, 2, 6))


def test_parse_bed3():
    inst = parse_instance(BED)
    assert inst.fmt == "bed3"
    assert inst.records[0] == Record("chr2", 5, 9)
    groups = inst.chromosomes()
    assert set(groups) == {"chr1", "chr2"}
    ivs, indices = groups["chr2"]
    assert indices.tolist() == [0, 2]
    assert ivs.items == (Interval(5, 9), Interval(6, 12))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("0 5\nx 5\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("0 5\n1 6\n7 7\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("1 2 3 4\n")
    with pytest.raises(ParseError, match="negative"):
        parse_instance("chr1 -3 5\n", fmt="bed3")
    with pytest.raises(ParseError):
        parse_instance("chr1 4 5\n", fmt="plain")


def test_explicit_format_wins():
    # two integer columns are valid bed3 values but an invalid record count
    inst = parse_instance("3 9\n", fmt="plain")
    assert inst.fmt == "plain"
    with pytest.raises(ParseError):
        parse_instance("3 9\n", fmt="bed3")


def test_generate_instance_deterministic():
    a = generate_instance(6, 1000, seed=42)
    b = generate_instance(6, 1000, seed=42)
    assert a == b
    assert generate_instance(6, 1000, seed=43) != a


def test_generate_instance_valid():
    ivs = generate_instance(500, 1000, seed=7)
    assert len(ivs) == 500
    for iv in ivs:
        assert 0 <= iv.start < iv.end <= 1000
        assert iv.length <= 100
    with pytest.raises(ValueError):
        generate_instance(0, 1000, seed=1)


def _outcome(parse):
    """(fmt, records, each record's line as (offset, length) in the
    input bytes) of a parse, or the type and message of its error;
    ParseError and UnicodeDecodeError are both ValueErrors."""
    try:
        inst = parse()
    except ValueError as exc:
        return type(exc), str(exc)
    return inst.fmt, inst.records, list(zip(inst.line_at.tolist(), inst.line_len.tolist()))


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
@given(instance_bytes(), st.sampled_from([None, None, "plain", "bed3"]))
@example(b"chr1 0 5\n\n#chr1 0 5\nchr1 2 9\n", None)
@example(b"# a comment\n0 5\n", None)
@example(b"chr1 0 5\nchr1 0 5 chr1 6 9\n\n", None)  # 3 lines and 9 tokens, like 3 BED3 lines
@example(b"0 5\r\n2 9\r\n3 7", None)
@example(b"chr1\t0 5\nchr2  2\t9\n", None)
@example(b"chr1 007 +9\nchr1 1_000 2000\n", None)
@example("chr1 \u0663 9\n".encode(), None)
@example(b"0 18446744073709551615\n0 18446744073709551616\n", None)
@example(b"chr1 -1 5\n", None)
@example(b"chr1 5 5\n", None)
@example(b"0 5\n", "bed3")
@example(b"chr1 0 5\n", "plain")
@example(b"c\x0b0 5\n", None)
@example(b"chr1 0 5\nchr\xff 0 5\n", None)
@example(b"0 5\r2 9\n", None)  # a lone carriage return
@example(b"0 5\r\n2 9\r", None)
@example(b"0 18446744073709551615\n", None)
@example(b"0 18446744073709551616\n", None)
@example(b"0000000000000000000000005 0000000000000000000000009\n", None)
@example(b"chr1 0 5\x00\n", None)
@example(b"chr1\x000 5\n", None)
@example(b"chr1 0 5\nchr1 2 9", None)  # no final newline
@example(b"chr1 0 5\n\n \t\nchr2 2 9\n\n", None)  # blank lines between runs
@example(b"chr1 0 5\nchr10 1 6\nchr1 2 7\nchr1 3 8\n", None)  # one name a prefix of another
@example(b"chr2 0 5\nchr1 1 6\nchr2 2 7\n", None)  # a name recurs after another
@example(SHUFFLED, None)
@example(b"chr1 2 9 \t\r\n\tchr1 0 5\n", None)
@example(b"chr1 +5 9\n", None)
def test_bulk_parser_agrees_with_line_parser(data, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reads")
        with open(path, "wb") as fh:
            fh.write(data)
        got = _outcome(lambda: read_instance(path, fmt))
    assert got == _outcome(lambda: parse_instance(data.decode("utf-8"), fmt))


@pytest.mark.parametrize("text, fmt, records", [
    ("chr2\t5\t9\nchr1\t0\t4\r\nchr2 6  12", "bed3",
     (Record("chr2", 5, 9), Record("chr1", 0, 4), Record("chr2", 6, 12))),
    ("0 8\n0 2\n2 6\n", "plain", (Record(None, 0, 8), Record(None, 0, 2), Record(None, 2, 6))),
], ids=["bed3", "plain"])
def test_regular_files_never_reach_the_line_parser(tmp_path, monkeypatch, text, fmt, records):
    # a bulk parser that always fell back would pass every output check
    def refuse(*args):
        raise AssertionError("the line parser ran on a regular file")

    monkeypatch.setattr(io, "parse_instance", refuse)
    path = tmp_path / "reads"
    path.write_text(text)
    inst = read_instance(str(path))
    assert (inst.fmt, inst.records) == (fmt, records)


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "reads.bed"
    path.write_bytes(b"chr1\t0\t5\nchr\xff\t0\t5\n")
    assert main(["approx", str(path), "--k", "1"]) == 2
    assert "utf-8" in capsys.readouterr().err
