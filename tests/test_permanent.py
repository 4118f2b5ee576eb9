import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census.graph import (
    BitMatrix,
    build_anti,
    build_full_coprime,
    build_gcd_k,
    build_odd_half,
    build_odd_plus_excluding,
)
from coprime_census.permanent import (
    CapacityError,
    _ryser_classes,
    _ryser_masks,
    _transpose,
    permanent_brute,
    permanent_ryser,
)


def matrix_from_rows(rows: list[int], n: int) -> BitMatrix:
    labels = tuple(range(1, n + 1))
    return BitMatrix(n=n, rows=tuple(rows), labels_row=labels, labels_col=labels)


def random_matrix(rng: random.Random, n: int, density: float = 0.6) -> BitMatrix:
    rows = []
    for _ in range(n):
        rows.append(sum(1 << j for j in range(n) if rng.random() < density))
    return matrix_from_rows(rows, n)


class TestRyser:
    def test_all_ones(self):
        m = matrix_from_rows([7, 7, 7], 3)
        assert permanent_ryser(m) == 6

    def test_identity(self):
        m = matrix_from_rows([1, 2, 4, 8], 4)
        assert permanent_ryser(m) == 1

    def test_zero_row(self):
        m = matrix_from_rows([3, 0], 2)
        assert permanent_ryser(m) == 0

    def test_empty(self):
        m = BitMatrix(n=0, rows=(), labels_row=(), labels_col=())
        assert permanent_ryser(m) == 1

    def test_published_c0_18(self):
        assert permanent_ryser(build_odd_half(18)) == 79772814777600

    def test_ceiling_refusal(self):
        with pytest.raises(CapacityError):
            permanent_ryser(build_full_coprime(9), ceiling=8)

    def test_subset_walk_equals_class_walk(self):
        m = build_odd_half(16)
        assert _ryser_masks(m.rows, m.n) == permanent_ryser(m)

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_row_column_shuffle_invariance(self, n, rnd):
        rng = random.Random(rnd.randint(0, 10**9))
        m = random_matrix(rng, n)
        base = permanent_ryser(m)
        perm_r = list(range(n))
        perm_c = list(range(n))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        shuffled_rows = []
        for i in perm_r:
            row = 0
            for jj, j in enumerate(perm_c):
                if (m.rows[i] >> j) & 1:
                    row |= 1 << jj
            shuffled_rows.append(row)
        assert permanent_ryser(matrix_from_rows(shuffled_rows, n)) == base


class TestBrute:
    def test_two_by_two(self):
        assert permanent_brute(matrix_from_rows([3, 1], 2)) == 1

    def test_published_values(self):
        assert permanent_brute(build_full_coprime(9)) == 3600
        assert permanent_brute(build_full_coprime(7)) == 256

    def test_refuses_large(self):
        with pytest.raises(CapacityError):
            permanent_brute(build_full_coprime(11))


class TestThreeWayAgreement:
    def test_five_hundred_samples(self):
        rng = random.Random(20260811)
        checked = 0
        for n in range(1, 8):
            for _ in range(70):
                m = random_matrix(rng, n, density=rng.uniform(0.1, 0.95))
                b = permanent_brute(m)
                assert permanent_ryser(m) == b
                checked += 1
        for n in (8, 9):
            for _ in range(10):
                m = random_matrix(rng, n, density=rng.uniform(0.3, 0.8))
                b = permanent_brute(m)
                assert permanent_ryser(m) == b
                checked += 1
        assert checked >= 500


# every builder's matrices up to dimension 16, by family
BUILDER_FAMILIES = {
    "odd_half": lambda: [build_odd_half(n) for n in range(1, 17)],
    "full_coprime": lambda: [build_full_coprime(n) for n in range(1, 17)],
    "anti": lambda: [m for m in map(build_anti, range(2, 22)) if m.n <= 16],
    "gcd_2": lambda: [build_gcd_k(n, 2) for n in range(1, 17)],
    "gcd_3": lambda: [build_gcd_k(n, 3) for n in range(1, 17)],
    "gcd_5": lambda: [build_gcd_k(n, 5) for n in range(1, 17)],
    "odd_plus_excluding": lambda: [
        build_odd_plus_excluding(n, a)
        for n in range(1, 13)
        for a in range(1, 2 * n + 2, 2)
    ],
}


class TestClassWalk:
    @pytest.mark.parametrize("family", sorted(BUILDER_FAMILIES))
    def test_both_sides_equal_the_subset_walk(self, family):
        for m in BUILDER_FAMILIES[family]():
            want = _ryser_masks(m.rows, m.n)
            assert _ryser_classes(m.rows, m.n) == want, m.to_text()
            assert _ryser_classes(_transpose(m.rows, m.n), m.n) == want, m.to_text()

    @pytest.mark.parametrize(
        "rows",
        [
            [0b10111, 0b00101, 0b11011, 0b10001, 0b01111],  # column 3 all zero
            [0b111101] * 6,  # all rows identical, column 1 zero
            [0b1111111] * 7,  # all rows identical, all ones
        ],
    )
    def test_degenerate_classes_equal_brute(self, rows):
        m = matrix_from_rows(rows, len(rows))
        want = permanent_brute(m)
        assert _ryser_classes(m.rows, m.n) == want
        assert _ryser_classes(_transpose(m.rows, m.n), m.n) == want
