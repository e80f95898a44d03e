import os
import sys

import pytest

from xxrx import (
    KNOWN_SEQUENCE_IDS,
    MAX_BFILE_BYTES,
    BFile,
    BFileParseError,
    compare_values,
    count_c,
    format_bfile,
    read_bfile,
)
from xxrx.oeis import _parse_bfile


def test_parse_simple():
    bf = _parse_bfile("0 1\n1 2\n2 4\n")
    assert bf.entries == ((0, 1), (1, 2), (2, 4))
    assert bf.sequence_id is None


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header comment\n\n0 1\n# middle\n1 2\n\n"
    assert _parse_bfile(text).entries == ((0, 1), (1, 2))


def test_parse_empty_is_valid():
    bf = _parse_bfile("")
    assert bf.entries == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BFileParseError) as info:
        _parse_bfile("0 1\nbogus line here\n")
    assert info.value.lineno == 2
    assert "line 2" in str(info.value)

    with pytest.raises(BFileParseError) as info:
        _parse_bfile("0 1\n1 x\n")
    assert info.value.lineno == 2

    with pytest.raises(BFileParseError) as info:
        _parse_bfile("0 1\n5 2\n3 9\n")
    assert info.value.lineno == 3


def test_parse_errors_clip_the_line_and_name_long_integers():
    for text in ("x" * 200_000, "0 1 " * 50_000, "0 " + "x" * 200_000):
        with pytest.raises(BFileParseError) as info:
            _parse_bfile(text)
        assert len(str(info.value)) < 120
    limit = sys.get_int_max_str_digits()
    for line in ("0 " + "7" * 5000, "-" + "7" * 5000 + " 1"):
        with pytest.raises(BFileParseError) as info:
            _parse_bfile("0 1\n" + line)
        assert str(info.value).startswith(f"line 2: field too long (5000 digits, limit {limit}) in '")
    with pytest.raises(BFileParseError, match="^line 1: non-integer field in '0 x'$"):
        _parse_bfile("0 x")


def test_out_of_order_indices_are_quoted_clipped():
    with pytest.raises(BFileParseError) as info:
        _parse_bfile("9" * 4000 + " 1\n1 1\n")
    assert info.value.lineno == 2
    assert len(str(info.value)) < 160
    assert str(info.value).startswith("line 2: indices must be strictly increasing, '1' after '999")
    with pytest.raises(BFileParseError, match="^line 3: indices must be strictly increasing, '5' after '05'$"):
        _parse_bfile("0 1\n05 2\n5 9\n")


def test_negative_values_parse():
    assert _parse_bfile("0 -5\n1 7\n").entries == ((0, -5), (1, 7))


def test_read_infers_id_from_filename(tmp_path):
    p = tmp_path / "b261204.txt"
    p.write_text("0 1\n1 2\n")
    assert read_bfile(p).sequence_id == "A261204"
    q = tmp_path / "values.txt"
    q.write_text("0 1\n")
    assert read_bfile(q).sequence_id is None


def test_format_bfile():
    assert format_bfile([1, 2, 4]) == "0 1\n1 2\n2 4\n"
    assert format_bfile([]) == ""


def test_format_parse_round_trip():
    values = count_c(12)
    bf = _parse_bfile(format_bfile(values))
    assert [v for _, v in bf.entries] == values
    assert [n for n, _ in bf.entries] == list(range(13))


def test_compare_values():
    bf = BFile(((0, 1), (1, 2), (2, 4), (10, 99)))
    mismatches, overlap = compare_values(bf, [1, 2, 4])
    assert mismatches == [] and overlap == 3

    mismatches, overlap = compare_values(bf, [1, 2, 5])
    assert overlap == 3
    assert len(mismatches) == 1
    assert (mismatches[0].index, mismatches[0].local, mismatches[0].reference) == (2, 5, 4)


def test_compare_values_with_offset():
    bf = BFile(((1, 2), (2, 4)))
    mismatches, overlap = compare_values(bf, [2, 4], offset=1)
    assert mismatches == [] and overlap == 2


def test_compare_values_empty_overlap():
    bf = BFile(((50, 123),))
    mismatches, overlap = compare_values(bf, [1, 2, 3])
    assert mismatches == [] and overlap == 0


def test_known_sequence_ids():
    assert KNOWN_SEQUENCE_IDS == {"c": "A261204", "u_tilde": "A022567"}


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_file_is_refused_at_the_cap():
    with pytest.raises(ValueError, match=f"file is larger than {MAX_BFILE_BYTES} bytes"):
        read_bfile("/dev/zero")
