"""Direct checks of the pure-Python kernels."""

import random

import pytest

from helpers import all_words, ref_find_xxrx, ref_in_x_template, ref_profile
from xxrx import _backend, _scan_py, reconstruct, sequences


# 19900 letters, ending in 1
_MEMBER = reconstruct("0", range(1, 200))


# only the split sees most of these triples: is_member searches only the
# first _scan_py._PREFIX letters, and only for 000, and profile_of not at all
def test_profile_raises_on_tripled_letters():
    for bad in (
        "000", "111", "010111", "0111", "1110", "1110" + "10" * 500, "10" * 500 + "0111",
        "000" + _MEMBER, "111" + _MEMBER, _MEMBER + "000", _MEMBER + "11",
    ):
        with pytest.raises(ValueError, match="triple letter"):
            _scan_py.profile_of(bad.encode("ascii"))
        assert not _scan_py.is_member(bad.encode("ascii"))


def test_pure_kernels_direct():
    assert _scan_py.scan_xxrx(b"010110100101") == (0, 4)
    assert _scan_py.scan_xxrx(b"0101") is None
    assert _scan_py.profile_of(b"010110100101") == [4, 4, 4]
    assert _scan_py.profile_of(b"") == []
    assert _scan_py.is_member(b"00")
    assert not _scan_py.is_member(b"010110100101")


def test_backend_exports_only_the_kernels():
    # _backend exists for perfbench alone, which traces every callable in
    # it, one span per call, so a helper such as _is_instance stays out
    exported = {name for name, obj in vars(_backend).items() if callable(obj)}
    assert exported == {"is_member", "profile_of", "scan_xxrx", "available_backends"}


def test_is_member_decides_by_the_valley_test_of_x(monkeypatch):
    # one valley test serves the recognizer and sequences.in_x: is_member
    # hands the run lengths of its split to sequences._first_valley
    seen = []
    real = sequences._first_valley

    def first_valley(s):
        seen.append(list(s))
        return real(s)

    monkeypatch.setattr(_scan_py, "_first_valley", first_valley)
    # a member and a near-member, whose one valley is its middle block;
    # each run is one letter shorter than its block
    for prof, want in [((2, 3, 2), True), ((3, 2, 3), False)]:
        seen.clear()
        assert _scan_py.is_member(reconstruct("0", prof).encode("ascii")) is want
        assert seen == [[d - 1 for d in prof]]


@pytest.mark.parametrize("w", ["010110100101", b"010110100101"])
def test_instance_test_reads_str_and_bytes(w):
    assert _scan_py._is_instance(w, 4, 8)
    assert not _scan_py._is_instance(w, 3, 6)
    assert _scan_py._is_instance(w[1:2] * 3, 1, 2)  # t = 1: a triple


def _ref_member(w):
    try:
        return ref_in_x_template(ref_profile(w))
    except ValueError:
        return False


def _agrees_with_reference(w):
    b = w.encode("ascii")
    try:
        want = list(ref_profile(w))
    except ValueError:
        with pytest.raises(ValueError):
            _scan_py.profile_of(b)
    else:
        assert _scan_py.profile_of(b) == want
    assert _scan_py.is_member(b) is _ref_member(w)


def _random_profile(rng, length, mountain):
    """Entries summing to length, interior ones at least 2.  A mountain
    rises and falls strictly, so its word is a member; otherwise entries
    are drawn independently and the profile almost surely has a valley."""
    if mountain:
        parts, k = [], 2
        while sum(parts) + k <= length:
            if rng.random() < 0.5:
                parts.append(k)
            k += 1
        if not parts:
            return [length]
        parts[-1] += length - sum(parts)
        top = parts.pop()
        left = [p for p in parts if rng.random() < 0.5]
        right = [p for p in parts if p not in left]
        return left + [top] + right[::-1]
    prof = []
    while sum(prof) < length:
        prof.append(rng.randint(2, 60))
    prof[-1] = length - sum(prof[:-1])
    return prof


def _flip(w, k):
    return w[:k] + ("1" if w[k] == "0" else "0") + w[k + 1:]


# 4299 and 4301 letters straddle CPython's 4300-digit limit on int/str
# conversion, which a kernel reading the word as a number must not meet
@pytest.mark.parametrize("length", [4299, 4301, 100_003])
def test_long_words_match_the_reference(length):
    rng = random.Random(length)
    for mountain in (True, False):
        for start in "01":
            w = reconstruct(start, _random_profile(rng, length, mountain))
            assert len(w) == length
            _agrees_with_reference(w)
            assert _scan_py.is_member(w.encode("ascii")) is mountain
            for k in [0, length - 1] + rng.sample(range(length), 3):
                _agrees_with_reference(_flip(w, k))


def test_scan_matches_the_reference_on_short_words():
    rng = random.Random(8)
    for _ in range(40):
        prof = _random_profile(rng, rng.randint(3, 300), rng.random() < 0.5)
        w = reconstruct(rng.choice("01"), prof)
        for v in (w, _flip(w, rng.randrange(len(w)))):
            assert _scan_py.scan_xxrx(v.encode("ascii")) == ref_find_xxrx(v)


@pytest.mark.parametrize("n", range(8))
def test_every_short_word_matches_the_reference(n):
    for w in all_words(n):
        _agrees_with_reference(w)
        assert _scan_py.scan_xxrx(w.encode("ascii")) == ref_find_xxrx(w)


def _profile_or_none(f, w):
    try:
        return list(f(w))
    except ValueError:
        return None


def test_kernels_match_the_reference_on_every_word_to_16():
    for n in range(17):
        for w in all_words(n):
            b = w.encode("ascii")
            want = _profile_or_none(ref_profile, w)
            assert _profile_or_none(_scan_py.profile_of, b) == want, w
            assert _scan_py.is_member(b) is (want is not None and ref_in_x_template(want)), w


def test_a_long_member_with_111_spliced_near_its_end():
    k = _MEMBER.rindex("11")
    bad = _MEMBER[:k] + "1" + _MEMBER[k:]
    assert len(_MEMBER) - k <= 200 and "111" in bad and "000" not in bad
    assert _scan_py.is_member(_MEMBER.encode("ascii"))
    assert not _scan_py.is_member(bad.encode("ascii"))
    with pytest.raises(ValueError, match="triple letter"):
        _scan_py.profile_of(bad.encode("ascii"))
    # no 000, so the split finds this 111
    assert _scan_py.scan_xxrx(bad.encode("ascii")) == ref_find_xxrx(bad) == (k, 1)


def _triple_at(w, i, c):
    """w with c * 3 written over w[i:i + 3], between two other letters."""
    o = "1" if c == "0" else "0"
    return w[:i - 1] + o + c * 3 + o + w[i + 4:]


# a triple starting at either side of the end of the prefix that
# is_member searches for 000: past it, only its split finds a 000.  The
# member's first block, 44 letters longer than the prefix, holds every
# splice
@pytest.mark.parametrize("c", "01")
def test_a_triple_at_the_end_of_the_searched_prefix(c):
    p = _scan_py._PREFIX
    member = reconstruct("0", range(p + 44, 0, -1))
    for i in range(p - 6, p + 5):
        bad = _triple_at(member, i, c)
        assert ref_find_xxrx(bad) == (i, 1)
        b = bad.encode("ascii")
        assert not _scan_py.is_member(b) and not _ref_member(bad)
        with pytest.raises(ValueError, match="triple letter"):
            _scan_py.profile_of(b)
        assert _scan_py.scan_xxrx(b) == (i, 1)


# the early exit the random words rely on: a 000 in the searched prefix
# is found without the split, the last one that fits in it included
@pytest.mark.parametrize("i", [0, 100, _scan_py._PREFIX - 3])
def test_a_000_in_the_prefix_is_found_without_the_split(monkeypatch, i):
    bad = _triple_at("1" + _MEMBER, i, "0") if i else "000" + _MEMBER
    assert ref_find_xxrx(bad) == (i, 1)

    def no_split(w):
        raise AssertionError("split called")

    monkeypatch.setattr(_scan_py, "_split", no_split)
    assert not _scan_py.is_member(bad.encode("ascii"))
    assert _scan_py.scan_xxrx(bad.encode("ascii")) == (i, 1)


def _splice(w, pair, last):
    """w with one more letter in its first (or last) doubled pair."""
    k = w.rindex(pair) if last else w.index(pair)
    return w[:k] + pair[0] + w[k:], k


# the scan looks for a 111 only after finding a 000, and then takes
# whichever comes first
@pytest.mark.parametrize("first, then", [("11", "00"), ("00", "11")])
def test_scan_finds_the_first_of_two_triples_in_a_long_word(first, then):
    w, k = _splice(_MEMBER, first, last=False)
    w, _ = _splice(w, then, last=True)
    assert len(w) == 19902 and w.index(first[0] * 3) == k < w.index(then[0] * 3)
    assert _scan_py.scan_xxrx(w.encode("ascii")) == ref_find_xxrx(w) == (k, 1)


def test_scan_matches_the_reference_on_every_word_to_18():
    for n in range(19):
        for w in all_words(n):
            assert _scan_py.scan_xxrx(w.encode("ascii")) == ref_find_xxrx(w)


# many blocks and no triple letter, so any instance is found by the
# pair scan, here at t = 2
@pytest.mark.parametrize(
    "w, want",
    [
        ("0110" * 750, (0, 2)),
        ("0011" * 1 + "0", None),
        ("0011" * 2 + "0", (1, 2)),
        ("0011" * 3 + "0", (1, 2)),
        ("0011" * 2000 + "0", (1, 2)),
    ],
)
def test_scan_on_many_blocks(w, want):
    assert _scan_py.scan_xxrx(w.encode("ascii")) == ref_find_xxrx(w) == want


# one instance, of a long x in the middle of a long word: every shorter
# block before and after it must be passed over
@pytest.mark.parametrize(
    "profile, want",
    [
        ((*range(1, 300), 300, 300, 300, *range(299, 0, -1)), (44850, 300)),
        ((*range(2, 700, 2), 700, 700, 700, *range(698, 0, -2)), (122150, 700)),
    ],
)
def test_scan_finds_one_long_x(profile, want):
    assert _scan_py.scan_xxrx(reconstruct("0", profile).encode("ascii")) == want


def test_scan_tests_each_interior_block_at_most_once(monkeypatch):
    w = reconstruct("0", range(1, 447)).encode("ascii")
    assert len(w) == 99681
    real, calls = _scan_py._is_instance, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_scan_py, "_is_instance", counted)
    assert _scan_py.scan_xxrx(w) is None
    assert len(calls) <= len(_scan_py._blocks(w)) - 2


@pytest.mark.parametrize("reps", [1, 2, 3, 1000])
def test_all_doubled_and_undoubled_words(reps):
    for w in ("0011" * reps, "1100" * reps + "1", "01" * reps, "10" * reps + "1"):
        _agrees_with_reference(w)
    assert _scan_py.profile_of(b"0011" * reps) == [1] + [2] * (2 * reps - 1) + [1]
    assert _scan_py.profile_of(b"01" * reps) == [2 * reps]
    assert _scan_py.is_member(b"01" * reps)
