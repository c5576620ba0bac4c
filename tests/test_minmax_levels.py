"""`ErrorMatrix.minmax` on cached per-column threshold levels, checked against
a frozen copy of the column min-max it replaced (`argmin_max` over the
distinct listed columns): on the lower-bound matrices the trials read, over
the meta columns of seeded bit vectors and over drawn multisets with
repeats; on seeded integer columns of 1 to 600 rows holding 1, 2, a few or
all-distinct values; and whatever columns were read first. The trials'
integer risk and failure tests are checked against `Fraction` comparisons
at thresholds on, just below and just above every level value."""
import math
import random
from fractions import Fraction as F

import pytest

from genlab import LowerBoundConfig, large_k_family, large_k_lower_bound, run_lower_bound
from genlab.core import ErrorMatrix, argmin_max
from genlab.experiments import BASE_RATE, _learn, _threshold

from test_lane_columns import domain, random_masks_class


def frozen_minmax(m, columns):
    """(i, worst) as `ErrorMatrix.minmax` gave it before levels: the max of
    each row over the distinct listed columns, then the first smallest."""
    worst = list(map(max, zip(*(m.columns[j] for j in set(columns)))))
    if not worst:
        raise ValueError("min-max needs at least one domain")
    best = min(worst)
    return worst.index(best), F(best, m.denominator)


def matrix_of(columns, den):
    """An `ErrorMatrix` holding the given integer columns over den, for the
    readers that use only `columns` and `denominator`."""
    m = ErrorMatrix.__new__(ErrorMatrix)
    m.rows, m.denominator, m.columns = len(columns[0]), den, tuple(map(tuple, columns))
    return m


def lower_bound_matrix(alpha):
    lbf = large_k_lower_bound(alpha, BASE_RATE)
    return lbf, ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)


def random_column(rng, rows, kind, den):
    if kind == "one":
        return [rng.randint(0, den)] * rows
    if kind == "all":
        return rng.sample(range(den + 1), rows)
    values = rng.sample(range(den + 1), min(den + 1, 2 if kind == "two" else rng.randint(3, 6)))
    return [rng.choice(values) for _ in range(rows)]


class TestAgainstFrozenMinmax:
    @pytest.mark.parametrize("alpha", [F(1, 50), F(1, 100), F(1, 2000)])
    def test_lower_bound_meta_columns_and_multisets(self, alpha):
        lbf, m = lower_bound_matrix(alpha)
        rng = random.Random(34001 + alpha.denominator)
        for _ in range(60):
            columns = lbf.meta_indices(tuple(rng.randrange(2) for _ in range(lbf.d)))
            assert m.minmax(columns) == frozen_minmax(m, columns)
            drawn = rng.choices(columns, k=rng.randint(1, 40))
            assert m.minmax(iter(drawn)) == frozen_minmax(m, drawn)
        for _ in range(60):
            drawn = rng.choices(range(len(m.columns)), k=rng.randint(1, 50))
            assert m.minmax(drawn) == frozen_minmax(m, drawn)

    @pytest.mark.parametrize("rows", [1, 2, 7, 64, 255, 600])
    def test_random_columns_of_each_value_count(self, rows):
        rng = random.Random(34100 + rows)
        for den in (1, 7, 2**40 + 15):
            kinds = [rng.choice(("one", "two", "few", "all")) for _ in range(12)]
            if den + 1 < rows:  # too few values for distinct entries
                kinds = [k if k != "all" else "few" for k in kinds]
            m = matrix_of([random_column(rng, rows, k, den) for k in kinds], den)
            for _ in range(40):
                columns = rng.choices(range(len(kinds)), k=rng.randint(1, 15))
                assert m.minmax(columns) == frozen_minmax(m, columns)

    def test_ties_break_to_the_lowest_row(self):
        rng = random.Random(34200)
        for _ in range(200):
            rows = rng.randint(2, 40)
            m = matrix_of([[rng.randint(0, 3) for _ in range(rows)] for _ in range(4)], 3)
            columns = rng.choices(range(4), k=rng.randint(1, 6))
            i, worst = frozen_minmax(m, columns)
            assert m.minmax(columns) == (i, worst)
        # rows 1 and 3 tie at the min-max 2; row 0 has a smaller entry but a larger max
        m = matrix_of([[0, 2, 3, 1], [3, 1, 0, 2]], 5)
        assert m.minmax([0, 1]) == (1, F(2, 5))

    def test_single_column_and_empty_list(self):
        lbf, m = lower_bound_matrix(F(1, 50))
        for j, column in enumerate(m.columns):
            best = min(column)
            assert m.minmax([j]) == (column.index(best), F(best, m.denominator))
            assert m.minmax([j, j, j]) == m.minmax([j])
        for empty in ([], (), iter([])):
            with pytest.raises(ValueError, match="min-max needs at least one domain"):
                m.minmax(empty)
            with pytest.raises(ValueError, match="min-max needs at least one domain"):
                argmin_max(empty)

    def test_results_do_not_depend_on_what_was_cached_first(self):
        lbf, m = lower_bound_matrix(F(1, 100))
        rng = random.Random(34300)
        queries = [rng.choices(range(len(m.columns)), k=rng.randint(1, 12)) for _ in range(80)]
        want = [frozen_minmax(m, q) for q in queries]
        for order in (queries, queries[::-1], sorted(queries, key=len)):
            fresh = ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)
            got = {tuple(q): fresh.minmax(q) for q in order}
            assert [got[tuple(q)] for q in queries] == want
        warm = ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)
        for j in rng.sample(range(len(m.columns)), len(m.columns)):
            warm.minmax([j])
        assert [warm.minmax(q) for q in queries] == want

    def test_levels_are_made_on_first_read_and_hold_the_threshold_masks(self):
        rng = random.Random(34400)
        hc = random_masks_class(rng, 12, 90)
        m = ErrorMatrix(hc, [domain(rng, 12, rng.randint(2, 400), rng.randint(1, 12))
                             for _ in range(6)])
        assert "_levels" not in vars(m)
        m.minmax([4, 1, 4])
        assert set(m._levels) == {1, 4}
        for j, (values, masks) in m._levels.items():
            column = m.columns[j]
            assert values == sorted(set(column))
            assert masks == [sum(1 << i for i, e in enumerate(column) if e <= v) for v in values]


class TestColumnIndices:
    def test_a_negative_index_is_refused_and_never_cached(self):
        base = large_k_family(F(1, 50))
        hc = base.slice.hypothesis_class
        m = ErrorMatrix(hc, base.family.domains)
        last = len(m.columns) - 1
        for columns in ([-1], [0, -1], [-len(m.columns)]):
            with pytest.raises(IndexError):
                m.minmax(columns)
        assert -1 not in m._levels and -len(m.columns) not in m._levels
        with pytest.raises(IndexError):
            m.minmax([last + 1])
        assert m.minmax([last]) == frozen_minmax(m, [last])
        assert m.minmax([0]) == frozen_minmax(m, [0])
        assert set(m._levels) == {0, last}


class TestIntegerThresholds:
    def thresholds(self, m):
        """Every level value as a Fraction over the denominator, and a point
        just below and just above it."""
        eps = F(1, 3 * m.denominator)
        values = {v for column in m.columns for v in column}
        return sorted({F(v, m.denominator) + s for v in values for s in (-eps, 0, eps)})

    @pytest.mark.parametrize("alpha", [F(1, 50), F(1, 100)])
    def test_learned_risk_matches_fraction_risk(self, alpha):
        lbf, m = lower_bound_matrix(alpha)
        weights = lbf.meta_weights(F(1, 50))
        rng = random.Random(34500 + alpha.denominator)
        for tau in self.thresholds(m):
            columns = lbf.meta_indices(tuple(rng.randrange(2) for _ in range(lbf.d)))
            hat, _, risk, _ = _learn(m, (), weights, columns, 9, rng.randrange(2**32), tau, None)
            want = sum((w for w, c in zip(weights, columns) if m.error(hat, c) > tau), start=F(0))
            assert risk == want
            limit = math.floor(tau * m.denominator)
            for column in m.columns:
                assert [e > limit for e in column] == [F(e, m.denominator) > tau for e in column]

    def test_lower_bound_failures_match_fraction_comparisons(self):
        """tau' on, just below and just above every error value up to the
        threshold floor, through tau_margin."""
        lbf, m = lower_bound_matrix(F(1, 50))
        floor = lbf.threshold_floor()
        margins = {floor - tau for tau in self.thresholds(m) if 0 <= floor - tau <= floor}
        assert len(margins) > 15
        outcomes = set()
        for margin in sorted(margins):
            cfg = LowerBoundConfig(F(1, 50), F(1, 20), 10, 12, 424244, tau_margin=margin)
            tau_prime = _threshold(lbf, margin)
            for row in run_lower_bound(cfg).rows:
                columns = lbf.meta_indices(tuple(map(int, row.extra["b"])))
                hat = row.hypothesis_index
                for t in row.extra["unseen"]:
                    failed = m.error(hat, columns[1 + t]) > tau_prime
                    assert (t in row.extra["failed_unseen"]) == failed
                    outcomes.add((m.error(hat, columns[1 + t]) == tau_prime, failed))
        assert outcomes == {(False, False), (False, True), (True, False)}
