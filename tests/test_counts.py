import math
from math import gcd

import pytest

from coprime_census import checks, counts, reference
from coprime_census.counts import (
    CapacityError,
    CountResult,
    anti_lower,
    brute_constrained_count,
    compute,
    count_a,
    count_c,
    count_c0,
    count_c1,
    count_c_a,
    count_ck,
    count_ratio,
    format_ratio,
    growth_ratio,
)
from coprime_census.graph import (
    DEFAULT_CEILING,
    anti_labels,
    count_dimension,
    matrix,
    smallest_factor,
)
from coprime_census.permanent import (
    ClassTable,
    _glynn_classes,
    class_table,
    permanent_minors,
    permanent_ryser,
)


class TestC0:
    def test_published(self):
        assert count_c0(1) == 1
        assert count_c0(4) == 18
        assert count_c0(18) == 79772814777600


    @pytest.mark.extended
    @pytest.mark.parametrize("m", [26, 27, 28])
    def test_past_the_table_equals_the_last_minor(self, monkeypatch, m):
        # deleting the row of 2m+1 from the ("ca", m) matrix leaves the C0(m)
        # matrix; the minors walk classes the columns against all m+1 rows,
        # so the two values come from walks of two different matrices.  An
        # empty memo keeps count_c0 from reading C0(m) off those minors
        monkeypatch.setattr(counts, "_memo", {})
        assert m > max(reference.TABLE_C0)
        assert count_c0(m) == permanent_minors(bit_table(matrix("ca", m)))[-1]

    def test_read_from_the_minors_memo_to_20(self, monkeypatch):
        # C0(n) is the last minor of C_(a)(n), behind C(2n+1), and the
        # expansion along column n of the C_(a)(n-1), behind C(2n-1)
        walk = counts.permanent_ryser

        def refused(table):
            raise AssertionError("C0 was walked though the memo held its minors")

        for n in range(1, 21):
            monkeypatch.setattr(counts, "_memo", {})
            cold = count_c0(n)
            for odd in (2 * n + 1, 2 * n - 1):
                monkeypatch.setattr(counts, "_memo", {})
                count_c(odd)
                # C(1) walks no minors, so C0(1) after it walks its own table
                if odd > 1:
                    monkeypatch.setattr(counts, "permanent_ryser", refused)
                assert count_c0(n) == cold, (n, odd)
                monkeypatch.setattr(counts, "permanent_ryser", walk)


class TestCa:
    def test_examples(self):
        assert count_c_a(1, 3) == 1
        assert count_c_a(2, 5) == 2
        assert count_c_a(2, 1) == 2

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            count_c_a(3, 2)


class TestC1:
    def test_examples(self):
        assert count_c1(1) == 2
        assert count_c1(2) == 6

    def test_upper_sandwich(self):
        for n in range(2, 8):
            assert count_c(2 * n + 1) <= count_c1(n) ** 2


class TestOddFromOneWalk:
    def test_double_sum_of_per_a_permanents(self):
        # odd C(n), n <= 35, against the coprime double sum assembled here
        # from one square permanent per excluded odd value
        for n in range(3, 36, 2):
            m = n // 2
            odds = range(1, n + 1, 2)
            rows = matrix("ca", m).rows
            # C_(a)(m): the ("ca", m) matrix without the row of a
            minus = lambda a: rows[: a // 2] + rows[a // 2 + 1 :]
            ca = {a: permanent_ryser(class_table(minus(a), [1] * m)) for a in odds}
            want = sum(ca[a] * ca[b] for a in odds for b in odds if gcd(a, b) == 1)
            assert count_c(n) == want, n
            assert count_c1(m) == sum(ca.values())

    def test_no_square_permanent_behind_odd_c(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a per-a permanent was walked")

        walked = []

        def minors(table):
            walked.append(table)
            return permanent_minors(table)

        monkeypatch.setattr(counts, "_memo", {})
        monkeypatch.setattr(counts, "permanent_ryser", refused)
        monkeypatch.setattr(counts, "permanent_minors", minors)
        assert count_c(25) == 172593628397420544
        assert count_c1(12) == sum(count_c_a(12, a) for a in range(1, 26, 2))
        # one walk of the 13 x 12 table built from the labels
        assert len(walked) == 1 and isinstance(walked[0], ClassTable)
        assert (walked[0].n, len(walked[0].row_class)) == (12, 13)

    def test_ceiling_refuses_before_the_walk(self, monkeypatch):
        def unwalked(*args, **kwargs):
            raise AssertionError("a table was built or walked")

        monkeypatch.setattr(counts, "_memo", {})
        for engine in ("permanent_ryser", "permanent_minors", "class_table", "_table"):
            monkeypatch.setattr(counts, engine, unwalked)
        # every route meets a largest permanent of dimension 15
        runs = [
            lambda: count_c(31, ceiling=14),
            lambda: count_c1(15, ceiling=14),
            lambda: count_c0(15, ceiling=14),
            lambda: count_a(20, ceiling=14),
            lambda: count_ck(15, 3, ceiling=14),
            lambda: compute("c", 15, method="permanent", ceiling=14),
            lambda: compute("c0", 15, method="permanent", ceiling=14),
            lambda: compute("a", 20, method="permanent", ceiling=14),
            lambda: compute("ck", 15, 3, method="permanent", ceiling=14),
        ]
        for run in runs:
            with pytest.raises(CapacityError, match="dimension 15 exceeds ceiling 14"):
                run()


class TestC:
    def test_small(self):
        assert count_c(1) == 1
        assert count_c(2) == 1
        assert count_c(5) == 28

    def test_published_24_25(self):
        assert count_c(24) == 1142807773593600
        assert count_c(25) == 172593628397420544

    def test_corrected_erratum_value(self):
        # published table prints a digit-transposed 129,774 here; four
        # independent methods give 129,744 (see reference.ERRATA_COUNTS)
        assert count_c(11) == 129744

    def test_capacity(self):
        # C(83) reduces to permanents of dimension 41, past the ceiling 40
        with pytest.raises(CapacityError):
            count_c(83)

    def test_monotone_same_parity(self):
        values = {n: count_c(n) for n in range(1, 17)}
        for n in range(1, 15):
            assert values[n] <= values[n + 2]

    def test_even_square_identity(self):
        for n in range(1, 9):
            assert count_c(2 * n) == count_c0(n) ** 2

    def test_lower_sandwich(self):
        for n in range(2, 8):
            assert 2 * count_c0(n - 1) ** 2 <= count_c(2 * n + 1)


class TestA:
    def test_published(self):
        assert count_a(8) == 30
        assert count_a(25) == 1775480841216

    def test_prime_equals_predecessor(self):
        # from p = 17 on, A(p) and A(p - 1) each eliminate some primes
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert count_a(p) == count_a(p - 1)

    @pytest.mark.parametrize("method", ["auto", "permanent", "brute"])
    def test_one_from_every_method(self, method):
        # A(1) is the permanent of the 0 x 0 reduced matrix
        assert compute("a", 1, method=method).value == 1


def eliminable(n: int) -> list[int]:
    """The primes in (sqrt(n), n/2], largest first."""
    return [p for p in range(n // 2, 1, -1) if p * p > n and smallest_factor(p) == p]


class TestAntiSplit:
    def test_every_elimination_equals_the_direct_walk(self):
        for n in range(1, 31):
            direct = permanent_ryser(matrix("a", n))
            primes = eliminable(n)
            # every prefix up to n = 24, then all the primes
            tried = range(1, len(primes) + 1) if n <= 24 else [len(primes)]
            for j in tried:
                assert counts._anti_split(n, primes[:j]) == direct, (n, primes[:j])
            assert count_a(n) == direct, n

    def test_split_equals_the_oracle(self):
        for n in range(1, 13):
            split = counts._anti_split(n, eliminable(n))
            assert split == brute_constrained_count(n, "a"), n

    @pytest.mark.parametrize("n, p", [(6, 3), (10, 5), (14, 7), (24, 11), (34, 17)])
    def test_one_prime_in_the_top_third_has_two_patterns(self, n, p):
        # p fixed leaves 2p, which joins the class of 2 on both sides; the
        # 2-cycle (p 2p) leaves nothing
        assert n // 3 < p <= n // 2
        assert counts._anti_patterns(n // p) == {((2,), (2,)): 1, ((), ()): 1}
        assert counts._anti_residuals(n, [p]) == {((2,), (2,)): 1, ((), ()): 1}

    @pytest.mark.parametrize("n", [21, 22, 24])
    def test_transposed_residuals_have_one_permanent(self, n):
        # the residual (X, Y) walks its column classes, (Y, X) its row classes
        primes = counts._anti_primes(n)
        base = [x for x in anti_labels(n) if all(x % p for p in primes)]
        anti = lambda x, y: gcd(x, y) > 1
        for rows, cols in counts._anti_residuals(n, primes):
            xy = counts._table(base + list(rows), base + list(cols), anti)
            yx = counts._table(base + list(cols), base + list(rows), anti)
            assert _glynn_classes(xy) == _glynn_classes(yx), (rows, cols)

    def test_each_transposed_pair_is_walked_once(self, monkeypatch):
        walked = []

        def counted(matrix):
            assert isinstance(matrix, ClassTable)  # built from the labels
            walked.append(matrix)
            return permanent_ryser(matrix)

        monkeypatch.setattr(counts, "permanent_ryser", counted)
        primes = counts._anti_primes(24)
        assert counts._anti_split(24, primes) == reference.TABLE_A[24][0]
        assert len(counts._anti_residuals(24, primes)) == 36
        assert len(walked) == 25

    def test_route_eliminates_every_large_prime(self):
        for n in range(1, 48):
            assert counts._anti_primes(n) == eliminable(n), n
        assert counts._anti_primes(24) == [11, 7, 5]
        assert counts._anti_primes(34) == [17, 13, 11, 7]

    def test_ceiling_reads_the_unreduced_labels(self, monkeypatch):
        # every residual of A(24) is smaller than 19, but the ceiling still
        # caps the 19 labels of the reduced matrix
        monkeypatch.setattr(counts, "_memo", {})
        primes = counts._anti_primes(24)
        base = [x for x in anti_labels(24) if all(x % p for p in primes)]
        assert max(len(base) + len(rows) for rows, _ in counts._anti_residuals(24, primes)) < 19
        assert count_dimension("a", 24) == len(anti_labels(24)) == 19
        with pytest.raises(CapacityError, match="permanent dimension 19 exceeds ceiling 18"):
            count_a(24, ceiling=18)
        assert count_a(24, ceiling=19) == reference.TABLE_A[24][0]

    @pytest.mark.extended
    @pytest.mark.parametrize("n", [31, 32, 33, 34])
    def test_split_equals_the_direct_walk_to_34(self, n):
        assert count_a(n) == permanent_ryser(matrix("a", n))

    def test_every_added_label_is_a_base_label_to_60(self):
        # rad(k), k <= n // p < sqrt(n), has a row and a column class in the
        # table of the base labels, so every residual table is derived
        for n in range(1, 61):
            primes = counts._anti_primes(n)
            base = {x for x in anti_labels(n) if all(x % p for p in primes)}
            for rows, cols in counts._anti_residuals(n, primes):
                assert set(rows + cols) <= base, (n, rows, cols)

    @staticmethod
    def grown_against_scratch(monkeypatch, n):
        """Each table _anti_split(n) walks, derived from the base table,
        against the table built from scratch on its labels."""
        walked = []

        def counted(table):
            walked.append(table)
            return permanent_ryser(table)

        with monkeypatch.context() as patch:
            patch.setattr(counts, "permanent_ryser", counted)
            primes = counts._anti_primes(n)
            counts._anti_split(n, primes)
        base = [x for x in anti_labels(n) if all(x % p for p in primes)]
        # the pairs in the order they are walked
        pairs = dict.fromkeys(min(k, k[::-1]) for k in counts._anti_residuals(n, primes))
        assert len(pairs) == len(walked), n
        anti = lambda x, y: gcd(x, y) > 1
        for (rows, cols), grown in zip(pairs, walked):
            scratch = counts._table(base + list(rows), base + list(cols), anti)
            assert class_shape(grown) == class_shape(scratch), (n, rows, cols)
            assert permanent_ryser(grown) == permanent_ryser(scratch), (n, rows, cols)

    def test_residual_tables_are_the_base_table_grown(self, monkeypatch):
        for n in range(1, 25):
            self.grown_against_scratch(monkeypatch, n)

    @pytest.mark.extended
    @pytest.mark.parametrize("n", range(25, 35))
    def test_residual_tables_are_the_base_table_grown_to_34(self, monkeypatch, n):
        self.grown_against_scratch(monkeypatch, n)


def bit_table(bits) -> ClassTable:
    """The class table grouped from the bits of a matrix."""
    return class_table(bits.rows, [1] * bits.n)


def class_shape(table: ClassTable) -> tuple[list[int], list[int]]:
    """The multisets of row multiplicities and column sizes."""
    return sorted(table.mult), sorted(table.sizes)


@pytest.fixture
def walked_tables(monkeypatch):
    """The tables each count hands to the walk, from an empty memo."""
    seen = []

    def recorded(engine):
        def walk(table):
            seen.append(table)
            return engine(table)

        return walk

    monkeypatch.setattr(counts, "_memo", {})
    monkeypatch.setattr(counts, "permanent_ryser", recorded(permanent_ryser))
    monkeypatch.setattr(counts, "permanent_minors", recorded(permanent_minors))
    return seen


class TestLabelTables:
    """The tables the counts build from rad classes of their labels have
    the class shape of the tables grouped from the bits of
    ``graph.matrix``, and the same permanents."""

    def test_c0_to_24(self, walked_tables):
        for m in range(1, 25):
            walked_tables.clear()
            value = count_c0(m)
            bits = bit_table(matrix("c0", m))
            assert [class_shape(t) for t in walked_tables] == [class_shape(bits)], m
            assert value == permanent_ryser(bits), m

    def test_minors_to_20(self, walked_tables):
        for m in range(1, 21):
            walked_tables.clear()
            values = [count_c_a(m, a) for a in range(1, 2 * m + 2, 2)]
            bits = bit_table(matrix("ca", m))
            assert [class_shape(t) for t in walked_tables] == [class_shape(bits)], m
            assert values == permanent_minors(bits), m

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ck_to_16(self, walked_tables, k):
        for n in range(1, 17):
            walked_tables.clear()
            value = count_ck(n, k)
            bits = bit_table(matrix("ck", n, k))
            assert [class_shape(t) for t in walked_tables] == [class_shape(bits)], (n, k)
            assert value == permanent_ryser(bits), (n, k)

    def test_every_anti_residual_to_34(self):
        anti = lambda x, y: gcd(x, y) > 1
        for n in range(1, 35):
            primes = counts._anti_primes(n)
            base = [x for x in anti_labels(n) if all(x % p for p in primes)]
            for rows, cols in counts._anti_residuals(n, primes):
                xs, ys = base + list(rows), base + list(cols)
                table = counts._table(xs, ys, anti)
                rows = [sum(anti(x, y) << j for j, y in enumerate(ys)) for x in xs]
                bits = class_table(rows, [1] * len(ys))
                assert class_shape(table) == class_shape(bits), (n, rows, cols)
                assert permanent_ryser(table) == permanent_ryser(bits), (n, rows, cols)

    def test_merged_rad_classes(self):
        # C_3(12): rads 5, 7 and 11 share no prime <= 3 with any label, so
        # their rows equal the row of 1 and merge into one class of 4
        labels = range(1, 13)
        table = counts._table(labels, labels, lambda x, y: gcd(x, y, 6) == 1)
        assert max(table.mult) == 4
        assert class_shape(table) == class_shape(bit_table(matrix("ck", 12, 3)))


class TestTermCounts:
    """Glynn's walk costs prod(c + 1) / 2 with an odd class, else
    prod(c + 1) * c / (c + 1) for the smallest class; each walk takes the
    side with fewer, counted here from the class sizes without walking."""

    @staticmethod
    def terms(sizes) -> int:
        total = math.prod(c + 1 for c in sizes)
        if any(c % 2 for c in sizes):
            return total // 2
        return total // (min(sizes) + 1) * min(sizes)

    @pytest.mark.parametrize(
        "n, want", [(15, 216), (16, 270), (17, 270), (24, 1925), (34, 115740)]
    )
    def test_anti_split_terms(self, monkeypatch, n, want):
        walked = []

        def counted(table):
            walked.append(min(self.terms(table.sizes), self.terms(table.mult)))
            return 0

        monkeypatch.setattr(counts, "permanent_ryser", counted)
        counts._anti_split(n, counts._anti_primes(n))
        assert sum(walked) == want


class TestCk:
    def test_published(self):
        assert count_ck(8, 2) == 576
        assert count_ck(9, 2) == 14400
        assert count_ck(12, 3) == 82944

    def test_parity_closed_forms(self):
        for n in range(1, 6):
            assert count_ck(2 * n, 2) == math.factorial(n) ** 2
            assert count_ck(2 * n + 1, 2) == math.factorial(n + 1) ** 2

    def test_dominates_full_constraint(self):
        for n in range(1, 11):
            c = count_c(n)
            # k = 10^8 stops at min(k, n)! in the matrix and at min(k, n) in the oracle
            for k in (2, 3, 5, 10**8):
                ck = count_ck(n, k)
                assert ck >= c
                if k >= n:
                    assert ck == c


class TestAntiLower:
    def test_examples(self):
        assert anti_lower(4) == 2
        assert anti_lower(9) == 48  # 4! * 2! * 1! * 1!

    def test_lower_bounds_a(self):
        for n in range(2, 16):
            assert anti_lower(n) <= count_a(n)


class TestRatios:
    def test_format_half_even(self):
        assert format_ratio(2.00005) == "2.0000"
        assert format_ratio(2.00015) == "2.0002"
        assert format_ratio(1.0) == "1.0000"

    def test_growth_ratio_past_the_float_range(self):
        # 200!/1 is past the largest float, so the quotient cannot be formed
        assert growth_ratio(200, 1) == pytest.approx(math.exp(math.lgamma(201) / 200), rel=1e-14)
        assert format_ratio(growth_ratio(1000, 1)) == "369.4917"

    def test_one_rule_per_kind(self):
        assert format_ratio(count_ratio("c0", 6, 252)) == "2.1044"  # r_12
        assert count_ratio("c", 9, 3600) == growth_ratio(9, 3600)
        assert count_ratio("a", 10, 408) == growth_ratio(10, 408)
        assert count_ratio("c1", 4, 20) is None
        assert count_ratio("ck", 6, 16) is None


class TestCheckTable:
    def test_pinned_rows(self):
        got = {rec.name: (rec.computed, rec.passed) for rec in checks.tables(10, DEFAULT_CEILING)}
        assert got["t1 n=6"] == ("C0=252 r=2.1044", True)
        assert got["t2 n=9"] == ("C=3600 r=1.6696", True)
        assert got["t3 n=10"] == ("A=408 u=2.4826", True)

    def test_only_reference_rows_are_computed(self, monkeypatch):
        short = {
            which: (shown, {n: ref for n, ref in rows.items() if n <= 10})
            for which, (shown, rows) in checks._TABLES.items()
        }
        monkeypatch.setattr(checks, "_TABLES", short)
        computed = []
        row_of = counts.table_row

        def spy(which, n, *, ceiling):
            computed.append((which, n))
            return row_of(which, n, ceiling=ceiling)

        monkeypatch.setattr(counts, "table_row", spy)
        records = checks.tables(40, DEFAULT_CEILING)
        # t1: n = 1..10, t2: odd n <= 9, t3: composite n <= 10
        assert [sum(r.name.startswith(w) for r in records) for w in short] == [10, 5, 5]
        assert len(computed) == 20 and max(n for _, n in computed) == 10
        assert all(r.passed for r in records)
        assert records[9].computed == "C0=565920 r=2.2082"

    def test_a_wrong_count_or_ratio_fails_its_row(self, monkeypatch):
        row_of = counts.table_row
        wrong = {
            ("t1", 6): lambda row: row._replace(value=row.value + 1),
            ("t2", 9): lambda row: row._replace(ratio=row.ratio + 1e-4),
        }

        def skewed(which, n, *, ceiling):
            row = row_of(which, n, ceiling=ceiling)
            return wrong.get((which, n), lambda r: r)(row)

        monkeypatch.setattr(counts, "table_row", skewed)
        failed = [r.name for r in checks.tables(10, DEFAULT_CEILING) if not r.passed]
        assert failed == ["t1 n=6", "t2 n=9"]


ORACLE_CASES = (
    [("c", None, n) for n in range(1, 13)]
    + [("a", None, n) for n in range(1, 13)]
    + [("ck", k, n) for k in (2, 3) for n in range(1, 13)]
)
# each oracle test id also names the predicate it tests
ORACLE_RULES = {"c": "coprime", "a": "anti", "ck": "gcd_k"}


class TestBruteConstrained:
    def test_examples(self):
        assert brute_constrained_count(5, "c") == 28
        assert brute_constrained_count(6, "a") == 8
        assert brute_constrained_count(3, "c") == 3

    @pytest.mark.parametrize(
        "kind,aux,n",
        ORACLE_CASES,
        ids=[f"{k}-{a}-{ORACLE_RULES[k]}-{n}" for k, a, n in ORACLE_CASES],
    )
    def test_matches_ryser(self, kind, aux, n):
        want = permanent_ryser(matrix(kind, n, aux))
        assert brute_constrained_count(n, kind, k=aux) == want

    def test_refusals(self):
        with pytest.raises(CapacityError):
            brute_constrained_count(13, "c")
        with pytest.raises(ValueError, match="no kind 'nonsense'"):
            brute_constrained_count(5, "nonsense")
        with pytest.raises(ValueError, match="needs k >= 2"):
            brute_constrained_count(5, "ck")


class TestCompute:
    def test_paths_agree_on_c(self):
        auto = compute("c", 12)
        direct = compute("c", 12, method="permanent")
        brute = compute("c", 12, method="brute")
        assert auto.value == direct.value == brute.value
        assert auto.method == "auto" and direct.method == "permanent"

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("method", ["auto", "permanent", "brute"])
    @pytest.mark.parametrize(
        "kind, aux", [("c", None), ("c0", None), ("c1", None), ("a", None), ("ck", 3)]
    )
    def test_refuses_n_below_one(self, kind, aux, method, n):
        with pytest.raises(ValueError):
            compute(kind, n, aux, method=method)

    @pytest.mark.parametrize(
        "kind, aux", [("c", None), ("c0", None), ("c1", None), ("a", None), ("ck", 2), ("ck", 3)]
    )
    def test_brute_equals_auto_up_to_the_one_limit(self, kind, aux):
        for n in range(1, 13):
            brute = compute(kind, n, aux, method="brute").value
            assert brute == compute(kind, n, aux).value, n
        with pytest.raises(CapacityError, match="brute enumeration limited to n <= 12"):
            compute(kind, 13, aux, method="brute")

    def test_ck_requires_aux(self):
        with pytest.raises(ValueError):
            compute("ck", 6)

    def test_result_invariants(self):
        res = compute("c", 7)
        assert isinstance(res, CountResult)
        assert res.value >= 1

    @pytest.mark.parametrize(
        "kind, n, aux", [("c0", 5, None), ("c1", 4, None), ("c", 6, None), ("a", 6, None), ("ck", 6, 3)]
    )
    def test_brute_refuses_past_the_ceiling(self, kind, n, aux):
        with pytest.raises(CapacityError, match="exceeds ceiling 2"):
            compute(kind, n, aux, method="brute", ceiling=2)
        assert compute(kind, n, aux, method="brute", ceiling=n).value >= 1

    @pytest.mark.parametrize(
        "run",
        [lambda: count_a(10**5), lambda: compute("c", 10**5, method="permanent")],
        ids=["count_a", "compute-permanent"],
    )
    def test_oversized_count_is_refused_before_its_matrix(self, monkeypatch, run):
        def unbuilt(*args):
            raise AssertionError("the matrix was built")

        # nor is any prime picked or any residual built for A(n)
        for builder in ("incidence", "matrix", "_anti_primes", "_anti_split"):
            monkeypatch.setattr(counts, builder, unbuilt)
        with pytest.raises(CapacityError, match="exceeds ceiling 40"):
            run()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            compute("zz", 5)

    @pytest.mark.parametrize(
        "count_fn, args",
        [(count_a, (20,)), (count_c0, (12,)), (count_c, (24,)), (count_ck, (12, 3))],
        ids=["a", "c0", "c", "ck"],
    )
    def test_memo_hit_respects_a_smaller_ceiling(self, count_fn, args):
        count_fn(*args)  # memoized under the default ceiling
        with pytest.raises(CapacityError, match="ceiling 10"):
            count_fn(*args, ceiling=10)

    @pytest.mark.parametrize(
        "kind, n, aux, method",
        [("c", 9, 3, "auto"), ("c1", 4, None, "permanent")],
        ids=["aux-on-c", "c1-permanent"],
    )
    def test_refuses_unread_input(self, kind, n, aux, method):
        with pytest.raises(ValueError):
            compute(kind, n, aux, method=method)

    @pytest.mark.parametrize(
        "kind, n, aux", [("c0", 8, None), ("a", 14, None), ("ck", 10, 3)]
    )
    def test_direct_permanent_matches_auto(self, kind, n, aux):
        direct = compute(kind, n, aux, method="permanent")
        assert direct.value == compute(kind, n, aux).value
        assert direct.method == "permanent"
