import math
from math import gcd

import pytest

from coprime_census import counts, reference
from coprime_census.counts import (
    CapacityError,
    CountResult,
    anti_lower,
    brute_constrained_count,
    check_table,
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
    matrix_for,
)
from coprime_census.graph import build_odd_plus_excluding
from coprime_census.permanent import permanent_ryser


class TestC0:
    def test_published(self):
        assert count_c0(1) == 1
        assert count_c0(4) == 18
        assert count_c0(18) == 79772814777600


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
        # from one Ryser permanent per excluded odd value
        for n in range(3, 36, 2):
            m = n // 2
            odds = range(1, n + 1, 2)
            ca = {a: permanent_ryser(build_odd_plus_excluding(m, a)) for a in odds}
            want = sum(ca[a] * ca[b] for a in odds for b in odds if gcd(a, b) == 1)
            assert count_c(n) == want, n
            assert count_c1(m) == sum(ca.values())

    def test_no_square_permanent_behind_odd_c(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a per-a permanent was walked")

        monkeypatch.setattr(counts, "_memo", {})
        monkeypatch.setattr(counts, "permanent_ryser", refused)
        assert count_c(25) == 172593628397420544
        assert count_c1(12) == sum(count_c_a(12, a) for a in range(1, 26, 2))

    def test_ceiling_refuses_before_the_walk(self, monkeypatch):
        def unwalked(*args, **kwargs):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(counts, "_memo", {})
        for engine in ("permanent_ryser", "permanent_minors"):
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
        for p in (2, 3, 5, 7, 11, 13):
            assert count_a(p) == count_a(p - 1)

    @pytest.mark.parametrize("method", ["auto", "permanent", "brute"])
    def test_one_from_every_method(self, method):
        # A(1) is the permanent of the 0 x 0 reduced matrix
        assert compute("a", 1, method=method).value == 1


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
            # k = 10^8 lists primes only up to n in the builder and the oracle
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
        got = {
            (which, row.n): (row.value, format_ratio(row.ratio), passed)
            for which in ("t1", "t2", "t3")
            for row, passed in check_table(which, 10)
        }
        assert got[("t1", 6)] == (252, "2.1044", True)
        assert got[("t2", 9)] == (3600, "1.6696", True)
        assert got[("t3", 10)] == (408, "2.4826", True)

    def test_only_reference_rows_are_computed(self, monkeypatch):
        for name in ("TABLE_C0", "TABLE_C_ODD", "TABLE_A"):
            rows = {n: ref for n, ref in getattr(reference, name).items() if n <= 10}
            monkeypatch.setattr(reference, name, rows)
        computed = []
        row_of = counts._table_row

        def spy(which, n, *, ceiling):
            computed.append((which, n))
            return row_of(which, n, ceiling=ceiling)

        monkeypatch.setattr(counts, "_table_row", spy)
        checks = [check_table(which, 40) for which in ("t1", "t2", "t3")]
        # t1: n = 1..10, t2: odd n <= 9, t3: composite n <= 10
        assert [len(c) for c in checks] == [10, 5, 5]
        assert len(computed) == 20 and max(n for _, n in computed) == 10
        assert all(passed for c in checks for _, passed in c)
        assert checks[0][9][0].value == 565920


class TestBruteConstrained:
    def test_examples(self):
        assert brute_constrained_count(5, "coprime") == 28
        assert brute_constrained_count(6, "anti") == 8
        assert brute_constrained_count(3, "coprime") == 3

    @pytest.mark.parametrize(
        "kind,aux,constraint,n",
        [("c", None, "coprime", n) for n in range(1, 13)]
        + [("a", None, "anti", n) for n in range(1, 13)]
        + [("ck", k, "gcd_k", n) for k in (2, 3) for n in range(1, 13)],
    )
    def test_matches_ryser(self, kind, aux, constraint, n):
        want = permanent_ryser(matrix_for(kind, n, aux))
        assert brute_constrained_count(n, constraint, k=aux) == want

    def test_refusals(self):
        with pytest.raises(CapacityError):
            brute_constrained_count(13, "coprime")
        with pytest.raises(ValueError):
            brute_constrained_count(5, "nonsense")
        with pytest.raises(ValueError):
            brute_constrained_count(5, "gcd_k")


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

        for builder in ("build_anti", "build_full_coprime"):
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
