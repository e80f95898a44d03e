import random

import pytest

from xxrx import avoids_xxrx_naive, is_in_l_linear
from xxrx.bench import (
    _ladder,
    _random_distinct_partition,
    random_member_word,
    random_word,
    run_benchmark,
)


def test_random_word_shape_and_determinism():
    rng = random.Random(42)
    w = random_word(rng, 100)
    assert len(w) == 100
    assert set(w) <= {"0", "1"}
    assert random_word(random.Random(42), 100) == w
    assert random_word(rng, 0) == ""
    with pytest.raises(ValueError):
        random_word(rng, -1)


def test_random_distinct_partition():
    rng = random.Random(7)
    for total in range(40):
        parts = _random_distinct_partition(rng, total)
        assert sum(parts) == total
        assert all(a < b for a, b in zip(parts, parts[1:]))
        assert all(p >= 1 for p in parts)
    assert _random_distinct_partition(rng, 0) == ()


def test_random_member_word_is_a_member():
    rng = random.Random(3)
    for length in list(range(25)) + [100, 1000]:
        w = random_member_word(rng, length)
        assert len(w) == length
        assert is_in_l_linear(w)
        if length <= 60:
            assert avoids_xxrx_naive(w)


def test_ladder_shape():
    assert _ladder(1) == [1]
    assert _ladder(8) == [1, 8]
    assert _ladder(1000) == [1, 15, 125, 1000]
    assert len(_ladder(10**6)) == 4


def test_run_benchmark_rows_and_agreement():
    report = run_benchmark(max_len=64, samples=6, seed=5, naive_cutoff=4096)
    engines = {r.engine for r in report.rows}
    assert "naive-scan" in engines
    assert "linear-python" in engines
    lengths = sorted({r.length for r in report.rows})
    assert lengths == [1, 8, 64]
    assert report.agreements == len(lengths) * 2 * 6  # lengths x pools x samples
    assert all(r.seconds_per_call >= 0 for r in report.rows)
    assert all(r.samples == 6 for r in report.rows)


def test_run_benchmark_skips_naive_above_cutoff():
    report = run_benchmark(max_len=512, samples=3, seed=1, naive_cutoff=100)
    naive_lengths = {r.length for r in report.rows if r.engine == "naive-scan"}
    linear_lengths = {r.length for r in report.rows if r.engine.startswith("linear")}
    assert all(n <= 100 for n in naive_lengths)
    assert 512 in linear_lengths


def test_run_benchmark_text_output():
    report = run_benchmark(max_len=16, samples=2, seed=0)
    text = report.as_text()
    assert "verdict agreement" in text
    assert "us/call" in text


def test_run_benchmark_argument_guards():
    with pytest.raises(ValueError):
        run_benchmark(max_len=0)
    with pytest.raises(ValueError):
        run_benchmark(samples=0)


def test_benchmark_is_deterministic_in_samples():
    # same seed must draw the same words; timings differ but agreement
    # totals and row structure must not
    a = run_benchmark(max_len=32, samples=4, seed=9)
    b = run_benchmark(max_len=32, samples=4, seed=9)
    assert [(r.length, r.source, r.engine) for r in a.rows] == [
        (r.length, r.source, r.engine) for r in b.rows
    ]
    assert a.agreements == b.agreements
