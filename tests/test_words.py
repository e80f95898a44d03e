import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complement, ref_find_xxrx, reverse
from xxrx import (
    PatternInstance,
    avoids_xxrx_naive,
    check_word,
    factorization,
    find_xxrx_instance,
    is_in_l_linear,
    profile,
    reconstruct,
)
from xxrx import words as words_module

words = st.text(alphabet="01", max_size=60)


def test_check_word_accepts_binary():
    # the ASCII bytes that every kernel reads
    member = reconstruct("0", (*range(1, 447), 319))
    assert len(member) == 10**5 and is_in_l_linear(member)
    for w in ("", "0101", member):
        assert check_word(w) == w.encode("ascii")
    assert check_word("0101") == b"0101"


def test_each_wrapper_hands_its_kernel_the_bytes_of_check_word(monkeypatch):
    # a word is encoded once, in check_word, and the kernel reads that object
    made, read = [], []

    def check(w):
        made.append(check_word(w))
        return made[-1]

    def spy(kernel):
        def run(b):
            read.append(b)
            return kernel(b)
        return run

    monkeypatch.setattr(words_module, "check_word", check)
    monkeypatch.setattr(factorization, "check_word", check)
    monkeypatch.setattr(words_module, "scan_xxrx", spy(words_module.scan_xxrx))
    monkeypatch.setattr(factorization, "is_member", spy(factorization.is_member))
    monkeypatch.setattr(factorization, "profile_of", spy(factorization.profile_of))
    for wrapper, want in (
        (find_xxrx_instance, PatternInstance(0, 2)),
        (is_in_l_linear, False),
        (profile, (2, 2, 2)),
        (avoids_xxrx_naive, False),
    ):
        made.clear()
        read.clear()
        assert wrapper("011001") == want
        assert len(made) == 1 and len(read) == 1
        assert read[0] is made[0]


def test_check_word_rejects_other_symbols():
    with pytest.raises(ValueError):
        check_word("0a1")
    for word, bad in (("0é1", "'é'"), ("01\x00", "'\\x00'"), ("012", "'2'")):
        with pytest.raises(ValueError) as info:
            check_word(word)
        assert str(info.value) == f"word symbols must be '0' or '1', found {bad}"
    for word, kind in ((b"01", "bytes"), (None, "NoneType"), (101, "int")):
        with pytest.raises(TypeError) as info:
            check_word(word)
        assert str(info.value) == f"word must be a str, not {kind}"


def test_find_xxrx_worked_example():
    assert find_xxrx_instance("010110100101") == PatternInstance(0, 4)
    # two doubled letters, and the only instance has the longest block
    assert find_xxrx_instance(reconstruct("0", (1000, 1000, 1000))) == PatternInstance(0, 1000)


def test_complement_reverse_examples():
    # anchor the helpers that the closure tests below rely on
    assert complement("010") == "101"
    assert complement("") == ""
    assert reverse("0010") == "0100"
    assert reverse("") == ""


@given(words)
def test_avoidance_invariant_under_complement_and_reverse(w):
    verdict = avoids_xxrx_naive(w)
    assert avoids_xxrx_naive(complement(w)) == verdict
    assert avoids_xxrx_naive(reverse(w)) == verdict


@settings(max_examples=200)
@given(words)
def test_scan_matches_reference_on_random_words(w):
    expected = ref_find_xxrx(w)
    got = find_xxrx_instance(w)
    assert got == (None if expected is None else PatternInstance(*expected))
