import inspect
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coprime_census import permanent
from coprime_census.graph import BitMatrix, matrix
from coprime_census.permanent import (
    ClassTable,
    _glynn_classes,
    class_table,
    permanent_dp,
    permanent_minors,
    permanent_ryser,
)


def matrix_from_rows(rows: list[int], n: int) -> BitMatrix:
    labels = tuple(range(1, n + 1))
    return BitMatrix(n=n, rows=tuple(rows), labels_row=labels, labels_col=labels)


def transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Row bit-vectors of the transpose: bit i of result[j] is entry (i, j)."""
    return tuple(sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(width))


def c_a_matrix(n: int, a: int) -> BitMatrix:
    """The C_(a)(n) matrix: the ("ca", n) matrix without the row of a."""
    i, (_, rows, odds, cols) = a // 2, matrix("ca", n)
    return BitMatrix(n, rows[:i] + rows[i + 1 :], odds[:i] + odds[i + 1 :], cols)


def class_shape(table: ClassTable) -> tuple[list[int], list[int]]:
    """The multisets of row multiplicities and column sizes."""
    return sorted(table.mult), sorted(table.sizes)


def both_tables(rows: tuple[int, ...]) -> tuple[ClassTable, ClassTable]:
    """The class tables of a square 0/1 matrix and of its transpose."""
    n = len(rows)
    return class_table(rows, [1] * n), class_table(transpose(rows, n), [1] * n)


def glynn_terms(sizes) -> int:
    """Terms of Glynn's half walk over column classes of these sizes:
    prod(c + 1) / 2 with an odd class, else prod(c + 1) * c / (c + 1) for
    the smallest class c."""
    terms = math.prod(c + 1 for c in sizes)
    if any(c % 2 for c in sizes):
        return terms // 2
    return terms // (min(sizes) + 1) * min(sizes)


def walked_terms(table: ClassTable) -> int:
    """The terms permanent_ryser walks: the cheaper side, columns on a tie."""
    return min(glynn_terms(table.sizes), glynn_terms(table.mult))


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
        assert permanent_ryser(matrix("c0", 18)) == 79772814777600

    def test_ceiling_refusal(self):
        # the count layer refuses past --ceiling; the engine has no cap of
        # its own, so the all-ones matrix past the default 40 is walked
        assert permanent_ryser(matrix_from_rows([(1 << 41) - 1] * 41, 41)) == math.factorial(41)
        with pytest.raises(TypeError):
            permanent_ryser(matrix("c", 9), ceiling=8)

    def test_refuses_a_non_square_matrix(self):
        # the (n+1) x n matrix is permanent_minors's: the walk would return
        # its minors, not one permanent
        tall = matrix("ca", 3)
        with pytest.raises(ValueError, match="4 rows by 3 columns"):
            permanent_ryser(tall)
        with pytest.raises(ValueError, match="4 rows by 3 columns"):
            permanent_ryser(class_table(tall.rows, [1] * 3))
        assert minors_of(tall.rows)[-1] == permanent_ryser(matrix("c0", 3))

    def test_subset_walk_equals_class_walk(self):
        m = matrix("c0", 16)
        assert permanent_dp(m.rows) == permanent_ryser(m)

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
    """permanent_dp, the exact oracle."""

    def test_two_by_two(self):
        assert permanent_dp((3, 1)) == 1
        assert permanent_dp(()) == 1

    def test_published_values(self):
        assert permanent_dp(matrix("c", 9).rows) == 3600
        assert permanent_dp(matrix("c", 7).rows) == 256
        assert permanent_dp(matrix("c", 16).rows) == 9552**2  # C0(8)^2

    def test_refuses_wide_rows(self):
        with pytest.raises(ValueError):
            permanent_dp((0b100, 0b011))  # 2 rows, a bit in column 2

    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    ))
    @settings(max_examples=150, deadline=None)
    def test_every_row_order_gives_one_value(self, drawn):
        # the DP sorts its rows by popcount; the permanent has no row order
        rows, order = drawn
        assert permanent_dp(tuple(rows[i] for i in order)) == permanent_dp(tuple(rows))


class TestThreeWayAgreement:
    def test_five_hundred_samples(self):
        rng = random.Random(20260811)
        checked = 0
        for n in range(1, 8):
            for _ in range(70):
                m = random_matrix(rng, n, density=rng.uniform(0.1, 0.95))
                assert permanent_ryser(m) == permanent_dp(m.rows)
                checked += 1
        for n in (8, 9):
            for _ in range(10):
                m = random_matrix(rng, n, density=rng.uniform(0.3, 0.8))
                assert permanent_ryser(m) == permanent_dp(m.rows)
                checked += 1
        assert checked >= 500


# every kind's matrices up to dimension 16, by family
BUILDER_FAMILIES = {
    "odd_half": lambda: [matrix("c0", n) for n in range(1, 17)],
    "full_coprime": lambda: [matrix("c", n) for n in range(1, 17)],
    "anti": lambda: [m for m in (matrix("a", n) for n in range(2, 22)) if m.n <= 16],
    "gcd_2": lambda: [matrix("ck", n, 2) for n in range(1, 17)],
    "gcd_3": lambda: [matrix("ck", n, 3) for n in range(1, 17)],
    "gcd_5": lambda: [matrix("ck", n, 5) for n in range(1, 17)],
    "odd_plus_excluding": lambda: [
        c_a_matrix(n, a) for n in range(1, 13) for a in range(1, 2 * n + 2, 2)
    ],
}


class TestClassWalk:
    @pytest.mark.parametrize("family", sorted(BUILDER_FAMILIES))
    def test_both_sides_equal_the_subset_walk(self, family):
        for m in BUILDER_FAMILIES[family]():
            want = permanent_dp(m.rows)
            table, transposed = both_tables(m.rows)
            assert _glynn_classes(table) == want, m.to_text()
            assert _glynn_classes(transposed) == want, m.to_text()
            # the transpose read from the blocks has the classes of the one
            # grouped from the transposed bits
            assert class_shape(permanent._transpose(table)) == class_shape(transposed)
            assert _glynn_classes(permanent._transpose(table)) == want, m.to_text()

    @pytest.mark.parametrize(
        "rows",
        [
            [0b10111, 0b00101, 0b11011, 0b10001, 0b01111],  # column 3 all zero
            [0b111101] * 6,  # all rows identical, column 1 zero
            [0b1111111] * 7,  # all rows identical, all ones
        ],
    )
    def test_degenerate_classes_equal_brute(self, rows):
        want = permanent_dp(tuple(rows))
        assert [_glynn_classes(t) for t in both_tables(tuple(rows))] == [want, want]

    @pytest.mark.parametrize(
        "walk, widths",
        [
            (lambda: permanent_ryser(matrix("c0", 9)), [9]),  # walks its column classes
            (lambda: permanent_ryser(matrix_from_rows(transpose(matrix("c0", 9).rows, 9), 9)), [9]),
        ],
        ids=["ryser-rows", "ryser-cols"],
    )
    def test_bits_are_grouped_once_per_walk(self, monkeypatch, walk, widths):
        # one pass over the bits builds the table; a walk over the row
        # classes (the transpose of the C0(9) matrix) transposes the table
        # from its blocks, with no second pass
        seen = []

        def counted(lines, group_widths):
            seen.append(len(group_widths))
            return class_table(lines, group_widths)

        monkeypatch.setattr(permanent, "class_table", counted)
        walk()
        assert seen == widths

    def test_tables_merge_equal_lines(self):
        # rows 0b011 twice and 0b100; columns 0 and 1 are equal
        table = class_table((0b011, 0b100, 0b011), [1, 1, 1])
        assert table == ClassTable(3, (2, 1), (2, 1), (0b01, 0b10), (0, 1, 0))
        # two column groups with equal bits merge, their widths added
        assert class_table((0b11, 0b11), [2, 3]) == ClassTable(5, (2,), (5,), (0b1,), (0, 0))

    def test_the_fastest_class_hits_the_fewest_rows(self):
        # C0(18): the walk's first step moves the class with the fewest hits
        table = class_table(matrix("c0", 18).rows, [1] * 18)
        _, sums = traced_walk(lambda: _glynn_classes(table))
        moved = sum(a != b for a, b in zip(sums[0], sums[1]))
        assert moved == min(col.bit_count() for col in table.cols) < max(
            col.bit_count() for col in table.cols
        )


def traced_walk(call, marker: str = "f = weight * mprod(powers)"):
    """``call()`` and a copy of the row-class sums each time a class walk
    it runs reaches the line of ``_glynn_classes`` holding ``marker``.

    The default line forms each term, so there is one copy per term.
    """
    code = _glynn_classes.__code__
    lines, first = inspect.getsourcelines(_glynn_classes)
    at = first + next(i for i, line in enumerate(lines) if marker in line)
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == at:
            seen.append(tuple(frame.f_locals["sums"]))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, seen


@st.composite
def copied_class_matrices(draw, copies):
    """Square 0/1 matrices blown up from a k x k base: base row i is
    repeated ``row_copies[i]`` times and base column j ``col_copies[j]``
    times, each count drawn from ``copies``.  Equal base lines merge, so
    a class size is a sum of such counts."""
    k = draw(st.integers(1, 4))
    row_copies = draw(st.lists(st.sampled_from(copies), min_size=k, max_size=k))
    col_copies = draw(st.permutations(row_copies))
    base = draw(st.lists(st.integers(0, 2**k - 1), min_size=k, max_size=k))
    assume(sum(row_copies) <= 12)
    col_of = [j for j, c in enumerate(col_copies) for _ in range(c)]
    rows = [row for row, c in zip(base, row_copies) for _ in range(c)]
    return tuple(sum(((row >> j) & 1) << i for i, j in enumerate(col_of)) for row in rows)


def both_sides(rows: tuple[int, ...]) -> tuple[int, int]:
    """The class walk over the columns, then over the rows."""
    table, transposed = both_tables(rows)
    return _glynn_classes(table), _glynn_classes(transposed)


class TestGlynnHalfWalk:
    """Glynn's walk keeps one of each delta, -delta pair."""

    @given(copied_class_matrices([2, 4]))
    @settings(max_examples=150, deadline=None)
    @example((0b1111,) * 4)  # one class of 4 on each side
    @example((0b0011, 0b0011, 0b1100, 0b1100))  # two classes of 2 on each side
    def test_every_class_even_holds_one_column(self, rows):
        cols = transpose(rows, len(rows))
        assert all(c % 2 == 0 for c in Counter(cols).values())
        assert all(c % 2 == 0 for c in Counter(rows).values())
        want = permanent_dp(rows)
        assert both_sides(rows) == (want, want)

    @given(copied_class_matrices([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    @example((0b111,) * 3)  # one class of 3 on each side
    @example((0b11101, 0b11101, 0b11101, 0b00011, 0b11110))  # classes 3, 1, 1
    def test_an_odd_class_on_each_side(self, rows):
        cols = transpose(rows, len(rows))
        assume(any(c % 2 for c in Counter(cols).values()))
        assume(any(c % 2 for c in Counter(rows).values()))
        want = permanent_dp(rows)
        assert both_sides(rows) == (want, want)

    @given(copied_class_matrices([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_bit_front_end_equals_the_oracle(self, rows):
        assert permanent_ryser(matrix_from_rows(list(rows), len(rows))) == permanent_dp(rows)

    def test_half_the_terms(self):
        m = matrix("c0", 18)
        value, sums = traced_walk(lambda: permanent_ryser(m))
        assert value == 79772814777600
        cols = Counter(transpose(m.rows, m.n)).values()
        assert len(sums) == 2592 == math.prod(c + 1 for c in cols) // 2
        value, sums = traced_walk(lambda: minors_of(matrix("ca", 15).rows))
        cols = Counter(transpose(matrix("ca", 15).rows, 15)).values()
        assert len(sums) == 900 == math.prod(c + 1 for c in cols) // 2
        assert value[-1] == permanent_ryser(matrix("c0", 15))

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_terms_are_counted_from_the_class_sizes(self, sizes):
        # all-ones blocks of c_t x c_t on the diagonal: column classes of
        # exactly these sizes
        lines = [1 << t for t, c in enumerate(sizes) for _ in range(c)]
        table = class_table(lines, sizes)
        assert table.sizes == tuple(sizes)
        value, sums = traced_walk(lambda: _glynn_classes(table))
        assert value == math.prod(map(math.factorial, sizes))
        assert len(sums) == glynn_terms(table.sizes)

    def test_side_is_chosen_by_exact_terms(self):
        # column classes 2, 2, 2 (all even: 27 * 2 / 3 = 18 terms) against
        # row classes 3, 1, 1, 1 (one odd: 32 / 2 = 16 terms); prod(c + 1)
        # alone, 27 against 32, would pick the columns
        rows = (0b111111,) * 3 + (0b000011, 0b001100, 0b110000)
        table = class_table(rows, [1] * 6)
        assert sorted(table.sizes) == [2, 2, 2] and sorted(table.mult) == [1, 1, 1, 3]
        value, sums = traced_walk(lambda: permanent_ryser(matrix_from_rows(list(rows), 6)))
        assert value == permanent_dp(rows) == 48
        assert len(sums) == walked_terms(table) == 16

    def test_even_classes_walk_the_held_class_to_its_end(self):
        # all ones, one class of 4: one column held at +1, k = 0..3 for
        # the other three, 4 of the 5 terms of the full sum
        value, sums = traced_walk(lambda: permanent_ryser(matrix_from_rows([0b1111] * 4, 4)))
        assert value == 24
        assert sums == [(4,), (2,), (0,), (-2,)]

    def test_minors_meet_zero_and_negative_sums(self):
        rows = matrix("ca", 7).rows
        minors, sums = traced_walk(lambda: minors_of(rows))
        assert minors == minors_by_dp(rows)
        assert any(0 in s for s in sums) and any(min(s) < 0 for s in sums)
        # terms with one zero sum, in a class of one row, feed that row alone
        _, lone = traced_walk(lambda: minors_of(rows), "totals[r] += weight *")
        assert lone and all(s.count(0) == 1 for s in lone)


@st.composite
def tall_class_matrices(draw):
    """(n+1) x n 0/1 matrices spread from a few distinct rows and columns,
    so classes repeat; any row or column may come out all zero."""
    n = draw(st.integers(1, 7))
    row_kinds = draw(st.integers(1, n + 1))
    col_kinds = draw(st.integers(1, n))
    base = draw(st.lists(st.integers(0, 2**col_kinds - 1), min_size=row_kinds, max_size=row_kinds))
    row_of = draw(st.lists(st.integers(0, row_kinds - 1), min_size=n + 1, max_size=n + 1))
    col_of = draw(st.lists(st.integers(0, col_kinds - 1), min_size=n, max_size=n))
    return tuple(sum(((base[r] >> col_of[j]) & 1) << j for j in range(n)) for r in row_of)


def minors_of(rows: tuple[int, ...]) -> list[int]:
    """permanent_minors of the (n+1) x n matrix with these row bit-vectors."""
    return permanent_minors(class_table(rows, [1] * (len(rows) - 1)))


def minors_by_dp(rows: tuple[int, ...]) -> list[int]:
    return [permanent_dp(rows[:i] + rows[i + 1 :]) for i in range(len(rows))]


class TestMinors:
    def test_odd_plus_rows_give_every_c_a(self):
        for m in range(1, 17):
            want = [permanent_ryser(c_a_matrix(m, a)) for a in range(1, 2 * m + 2, 2)]
            assert minors_of(matrix("ca", m).rows) == want, m

    @given(tall_class_matrices())
    @settings(max_examples=300, deadline=None)
    @example((0b111, 0b000, 0b101, 0b011))  # one zero row: only its minor survives
    @example((0b11, 0b00, 0b00))  # two zero rows: every minor is 0
    @example((0b101, 0b111, 0b101, 0b110))  # column 1 all zero
    @example((0b1, 0b1))  # one class of two rows
    @example((0b0011, 0b0100, 0b1000, 0b0011, 0b1100))  # size-1 classes whose sums return to 0
    def test_equals_brute_on_class_structured_matrices(self, rows):
        assert minors_of(rows) == minors_by_dp(rows)

    def test_zero_width(self):
        assert permanent_minors(class_table((0,), [])) == [1]

    def test_refusals(self):
        # a square table would give its one permanent, and the 3 x 1 table
        # minors that are not square
        for lines, widths in (([0b11, 0b11], [1, 1]), ([1, 1, 1], [1])):
            with pytest.raises(ValueError, match="rows by"):
                permanent_minors(class_table(lines, widths))
        with pytest.raises(TypeError):  # the count layer owns the ceiling
            permanent_minors(class_table(matrix("ca", 9).rows, [1] * 9), ceiling=8)
