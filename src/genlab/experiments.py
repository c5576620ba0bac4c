"""Seeded experiment harnesses with exact risk bookkeeping.

Three suites: `scaling` tracks how the min-max learner's domain risk falls as
the number of sampled domains grows; `uniform-convergence` measures how often
some concept hides positive mass behind an all-zero sample; `lower-bound` hides
a random bit vector behind flipped domains and counts how often the learner is
wrong where it has not looked.

Every trial is reproducible from (config, master seed) alone: trial seeds are
derived by stable hashing and error accounting is exact. Trials run one after
another on the calling thread: they are pure-Python `Fraction` work, so worker
threads would only contend for the interpreter lock. A config follows the data
files' rules however it is built, in Python or from JSON: integers are exact
ints, rationals are exact (stored as `Fraction`s) and grids list strictly
increasing positive ints.
"""
from __future__ import annotations

import csv
import io
import json
import math
import statistics
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import cache, partial
from itertools import islice, repeat
from typing import Any, Callable, ClassVar, Iterator, Sequence, TypeVar

from .constructions import (
    BASE_RATE,
    LowerBoundFamily,
    large_k_family,
    large_k_lower_bound,
    unanimous_point_mass,
)
from .core import (
    ConfigError,
    ErrorMatrix,
    ZERO,
    argmin_max,
    exact_values,
)
from .dimensions import (
    DimensionQuery,
    PartialConceptClass,
    induce_partial_class,
    partial_vc_dim,
)
from .learner import (
    bucket_counts,
    draw_domain_indices,
    inverse_cdf,
    numerator_cdf,
    sample_size_for,
    uniform_weights,
)
from .seeding import blocks, derive_seed, derive_seeds, rng_for, streams
from .serialize import _field, _int, _typed, rational_from_str, rational_to_str

SCALING_GENERATORS = ("adversarial-meta", "uniform-shattered", "point-mass")


def _grid(value: Any, what: str) -> tuple[int, ...]:
    grid = tuple(value) if isinstance(value, (tuple, list)) else ()
    if set(map(type, grid)) != {int} or grid[0] < 1 or grid != tuple(sorted(set(grid))):
        raise ValueError(
            f"{what}: grid must list positive integers, strictly increasing, got {value!r}")
    return grid


# Config field checks by annotation: each takes the value and the name a
# refusal gives it, and returns the value as the config stores it.
_TYPES: dict[str, Callable[[Any, str], Any]] = {
    "str": lambda value, what: _typed(value, str, what),
    "int": _int,
    "tuple[int, ...]": _grid,
    "Fraction": lambda q, what: Fraction(exact_values((q,), what)[0]),
    "Fraction | None": lambda q, what: q if q is None else _TYPES["Fraction"](q, what),
}

# Config range rules by field name, skipped for a None: (holds, refusal).
_RANGES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "generator": (SCALING_GENERATORS.__contains__, "unknown generator {!r}"),
    "n": (lambda n: n >= 1, "need n >= 1"),
    "trials": (lambda trials: trials >= 1, "need at least one trial"),
    "tau": (lambda tau: 0 <= tau <= 1, "tau must lie in [0, 1], got {}"),
    "alpha": (lambda alpha: alpha >= 0, "alpha must lie in [0, inf), got {}"),
    "delta": (lambda delta: 0 < delta < 1, "delta must lie in (0, 1), got {}"),
    "tau_margin": (lambda margin: margin >= 0, "tau_margin must lie in [0, inf), got {}"),
}


_C = TypeVar("_C", bound="_Config")


class _Config:
    """Each field is checked by its annotation (`_TYPES`), then by its name
    (`_RANGES`), however the config is built. The JSON form is "experiment",
    refused unless it names the class's own, plus one key per field; an absent
    or null optional key takes its default, and rationals are "p/q" strings."""

    experiment: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _TYPES[f.type](getattr(self, f.name), f"{self.experiment} config {f.name!r}")
            object.__setattr__(self, f.name, value)
            holds, refusal = _RANGES.get(f.name, (None, ""))
            if holds is not None and value is not None and not holds(value):
                raise ValueError(refusal.format(value))

    @classmethod
    def from_dict(cls: type[_C], obj: dict[str, Any]) -> _C:
        what = f"{cls.experiment} config"
        declared = _typed(obj, dict, what).get("experiment")
        if declared is not None and declared != cls.experiment:
            raise ValueError(
                f"config declares experiment {declared!r}, command is {cls.experiment!r}")
        unknown = set(obj) - {f.name for f in fields(cls)} - {"experiment"}
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")

        def read(f: Any) -> Any:  # a JSON value as the class takes it
            value, where = _field(obj, f.name, what), f"{what} {f.name!r}"
            if "Fraction" in f.type:
                return rational_from_str(value, where)
            return _typed(value, list, where) if f.type == "tuple[int, ...]" else value

        return cls(**{f.name: read(f) for f in fields(cls)
                      if f.default is MISSING or obj.get(f.name) is not None})

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"experiment": self.experiment}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Fraction):
                value = rational_to_str(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class ScalingConfig(_Config):
    """Risk-vs-n suite. tau=None picks the generator's natural threshold."""

    experiment: ClassVar[str] = "scaling"
    generator: str
    family_alpha: Fraction
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    tau: Fraction | None = None
    alpha: Fraction | None = None
    gamma: Fraction | None = None
    gamma_coefficient: Fraction | None = None
    epsilon: Fraction | None = None
    delta: Fraction = Fraction(1, 10)
    tau_margin: Fraction = Fraction(1, 1000)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma is not None and self.gamma_coefficient is not None:
            raise ValueError("give gamma or gamma_coefficient, not both")


@dataclass(frozen=True)
class UniformConvergenceConfig(_Config):
    """Tail-frequency suite over the induced partial class of a built family."""

    experiment: ClassVar[str] = "uniform-convergence"
    family_alpha: Fraction
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    tau: Fraction = BASE_RATE
    delta: Fraction = Fraction(1, 10)
    c_grid: tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class LowerBoundConfig(_Config):
    """Hidden-bit-vector suite at fixed n over a flipped family extension."""

    experiment: ClassVar[str] = "lower-bound"
    family_alpha: Fraction
    gamma: Fraction
    n: int
    trials: int
    seed: int
    tau: Fraction = BASE_RATE
    tau_margin: Fraction = Fraction(1, 1000)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0 < self.gamma < Fraction(1, 8)):
            raise ValueError(f"gamma must lie in (0, 1/8), got {self.gamma}")


@dataclass(frozen=True)
class TrialRow:
    """One trial's result. Each field is checked as a config field of its
    annotation is, and a refusal names it; an int mass is stored as its
    `Fraction`. `extra` must be a dict, whose contents are encoded only when
    the report is written."""

    experiment: str
    n: int
    trial: int
    seed: int
    hypothesis_index: int
    er_exact: Fraction
    max_train_err: Fraction | None
    extra: dict[str, Any]

    def __post_init__(self) -> None:
        if not (type(self.n) is type(self.trial) is type(self.seed) is type(self.hypothesis_index)
                is int and type(self.experiment) is str and type(self.er_exact) is Fraction
                and (self.max_train_err is None or type(self.max_train_err) is Fraction)
                and type(self.extra) is dict):
            for f in fields(self):  # `extra` is the one annotation `_TYPES` lacks
                check = _TYPES.get(f.type, lambda value, what: _typed(value, dict, what))
                value = check(getattr(self, f.name), f"trial row {f.name!r}")
                object.__setattr__(self, f.name, value)


# report.csv's header, and a row inside report.json's top-level "rows" list as
# `json.dump(..., indent=2, sort_keys=True)` writes it after "[" or ",": the
# nine keys in sorted order.
_CSV_HEADER = ("experiment", "n", "trial", "seed", "hypothesis_index", "er_exact", "er_float",
               "max_train_err", "extra")
_ROW_JSON = (
    '\n    {\n      "er_exact": "%s",\n      "er_float": %s,\n      "experiment": %s,\n'
    '      "extra": %s,\n      "hypothesis_index": %d,\n      "max_train_err": %s,\n'
    '      "n": %d,\n      "seed": %d,\n      "trial": %d\n    }'
)


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict[str, Any]
    rows: tuple[TrialRow, ...]
    aggregates: dict[str, Any]

    def chunks(self, float_digits: int = 12) -> Iterator[tuple[str, str]]:
        """report.json and report.csv in one pass over the rows, as (JSON, CSV)
        pieces to append to each file: the heads, one pair per row, the tails.

        report.json is the report's experiment, config, aggregates, rows and
        "series" as `json.dump(..., indent=2, sort_keys=True)` writes them, and a
        newline; a row holds its masses as "p/q" and `er_exact` also as a float.
        report.csv is what csv.writer writes: masses as "p/q" and as floats to
        `float_digits` significant digits, `extra` as compact key-sorted JSON.
        Every row fills one template per file (`TrialRow` holds only values the
        templates write exactly), from pieces formatted once per distinct mass,
        experiment name and compact `extra`."""
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def csv_line(fields: Sequence[Any]) -> str:
            buf.seek(0)
            buf.truncate()
            writer.writerow(fields)
            return buf.getvalue()

        def csv_field(text: str) -> str:  # the first of two fields: a lone "" is quoted
            return csv_line((text, ""))[:-2]

        # a mass as "p/q", as its float repr and as its float in report.csv, keyed
        # by its integer ratio (cheaper to hash than the Fraction)
        mass = cache(lambda p, q: (f"{p}/{q}", repr(p / q), format(p / q, f".{float_digits}g")))
        name = cache(lambda text: (encode(text), csv_field(text)))
        extras: dict[str, tuple[str, str]] = {}  # compact `extra` -> its JSON and CSV forms
        payload = {"experiment": self.experiment, "config": self.config,
                   "aggregates": self.aggregates, "rows": [], "series": self.series()}
        # "rows" is a top-level key, the only one indented by two spaces (a JSON
        # string holds no raw newline), so the split finds it exactly once
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split('\n  "rows": []')
        yield head + '\n  "rows": [', csv_line(_CSV_HEADER)
        comma = ""
        for r in self.rows:
            key = encode(r.extra)
            forms = extras.get(key)
            if forms is None:
                text = json.dumps(r.extra, indent=2, sort_keys=True).replace("\n", "\n      ")
                forms = extras[key] = (text, csv_field(key))
            er, er_float, er_csv = mass(*r.er_exact.as_integer_ratio())
            train = ("" if r.max_train_err is None
                     else mass(*r.max_train_err.as_integer_ratio())[0])
            experiment, experiment_csv = name(r.experiment)
            piece = _ROW_JSON % (er, er_float, experiment, forms[0], r.hypothesis_index,
                                 f'"{train}"' if train else "null", r.n, r.seed, r.trial)
            line = (f"{experiment_csv},{r.n},{r.trial},{r.seed},{r.hypothesis_index},"
                    f"{er},{er_csv},{train},{forms[1]}\n")
            yield comma + piece, line
            comma = ","
        yield ("\n  ]" if comma else "]") + tail + "\n", ""

    def to_csv_text(self, float_digits: int = 12) -> str:
        """report.csv, as `chunks` writes it."""
        return "".join(piece for _, piece in self.chunks(float_digits))

    def to_json_dict(self) -> dict[str, Any]:
        """report.json read back, without "series"."""
        payload = json.loads(self.to_json_text())
        del payload["series"]
        return payload

    def to_json_text(self) -> str:
        """report.json, as `chunks` writes it."""
        return "".join(piece for piece, _ in self.chunks())

    def series(self) -> list[dict[str, float]]:
        """Plot-ready (x, y) pairs; semantics depend on the experiment."""
        if self.experiment == "scaling":
            return [
                {"x": entry["n"], "y": entry["median_er_float"]}
                for entry in self.aggregates["per_n"]
            ]
        if self.experiment == "uniform-convergence":
            c = self.aggregates.get("calibrated_c") or self.aggregates["frequencies"][0]["C"]
            for block in self.aggregates["frequencies"]:
                if block["C"] == c:
                    return [{"x": e["n"], "y": e["freq"]} for e in block["per_n"]]
            return []
        return [{"x": r.trial, "y": float(r.er_exact)} for r in self.rows]


def _hidden_bits(
    lbf: LowerBoundFamily, seed: int, tag: str, n: int, trial: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A trial's hidden bit vector, and the extended-family column of each
    domain of its meta, in `meta_weights` order."""
    rng = rng_for(seed, tag, n, trial, "b")
    bits = tuple(rng.randrange(2) for _ in range(lbf.d))
    return bits, lbf.meta_indices(bits)


def _learn(
    matrix: ErrorMatrix,
    picks: Sequence[partial[int]],
    weights: Sequence[Fraction],
    columns: Sequence[int],
    n: int,
    train_seed: int,
    tau: Fraction,
    points: int | None,
) -> tuple[int, Fraction, Fraction, tuple[int, ...]]:
    """Fit the min-max learner on n domain draws from a meta.

    The meta puts weights[i] on the domain of matrix column columns[i]. With
    `points` None the learner sees the drawn domains' exact errors; otherwise
    its mistakes on the points `sample_training_set` would draw, that many per
    draw: each draw's generator words come from `blocks`, `bucket_counts`
    counts them per atom with one `translate` of their top bytes (picks[c] is
    the point sampler of column c), and `tally` sums the counts times the
    column's packed per-atom lanes.
    Returns the chosen hypothesis, its largest exact error over the drawn
    domains, its domain risk at tau, and the drawn meta indices.
    """
    indices, _ = draw_domain_indices(weights, n, train_seed)
    if points is None:
        hat, max_train = matrix.minmax(columns[i] for i in indices)
    else:
        words = blocks(derive_seeds(train_seed, "points", count=n), points)
        samples = {
            matrix.tally(c, enumerate(bucket_counts(picks[c], block)))
            for c, block in zip((columns[j] for j in indices), words)
        }
        hat, _ = argmin_max(samples)
        max_train = max(matrix.error(hat, columns[i]) for i in set(indices))
    risk = sum(
        (w for w, c in zip(weights, columns) if matrix.error(hat, c) > tau),
        start=ZERO,
    )
    return hat, max_train, risk, indices


def _scaling_aggregates(
    cfg: ScalingConfig, rows: list[TrialRow], tau: Fraction, alpha: Fraction,
    extra: dict[str, Any],
) -> dict[str, Any]:
    floor = Fraction(1, 10 * max(cfg.n_grid))
    per_n = []
    medians = []
    for n in cfg.n_grid:
        ers = [r.er_exact for r in rows if r.n == n]
        med = Fraction(statistics.median(ers))
        mean = sum(ers, start=ZERO) / len(ers)
        medians.append(med)
        per_n.append({
            "n": n,
            "median_er": rational_to_str(med),
            "median_er_float": float(med),
            "mean_er": rational_to_str(mean),
            "mean_er_float": float(mean),
        })
    xs = [math.log(n) for n, med in zip(cfg.n_grid, medians) if med > 0]
    ys = [math.log(float(med + floor)) for med in medians if med > 0]
    slope = None
    if len(xs) >= 2:
        slope = statistics.linear_regression(xs, ys).slope
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    agg = {
        "generator": cfg.generator,
        "tau": rational_to_str(tau),
        "alpha": rational_to_str(alpha),
        "floor": rational_to_str(floor),
        "per_n": per_n,
        "slope": slope,
        "fit_points": len(xs),
        "inversions": inversions,
    }
    agg.update(extra)
    return agg


def run_scaling(cfg: ScalingConfig) -> ExperimentReport:
    """Risk of the min-max learner as a function of the number of domain draws.

    The generator fixes the pool of domains, tau, the aggregate extras and,
    per trial, the meta's weights, its pool columns and the row's extras.
    """
    alpha = cfg.alpha if cfg.alpha is not None else cfg.family_alpha / 2
    epsilon = cfg.epsilon if cfg.epsilon is not None else ZERO
    if cfg.generator == "adversarial-meta":
        lbf = large_k_lower_bound(cfg.family_alpha, BASE_RATE)
        pool = lbf.extended_family.domains
        matrix = ErrorMatrix(lbf.hypothesis_class, pool)
        tau = cfg.tau if cfg.tau is not None else _threshold(lbf, cfg.tau_margin)
        # gamma falls as n grows, so a gamma out of range is out at the first n
        gammas = {n: _scaling_gamma(cfg, n) for n in cfg.n_grid}
        weights_at = {n: lbf.meta_weights(gamma) for n, gamma in gammas.items()}

        def meta(n: int, trial: int) -> tuple[Sequence[Fraction], Sequence[int], dict[str, Any]]:
            bits, columns = _hidden_bits(lbf, cfg.seed, "scaling", n, trial)
            _check_margin(matrix.minmax(columns)[1], tau, alpha, epsilon)
            return weights_at[n], columns, {
                "b": "".join(map(str, bits)), "gamma": rational_to_str(gammas[n]),
            }

        extra = {
            "lambda": rational_to_str(lbf.mix_weight),
            "threshold_floor": rational_to_str(lbf.threshold_floor()),
            "d": lbf.d,
        }
    else:
        base = large_k_family(cfg.family_alpha)
        hc = base.slice.hypothesis_class
        tau = cfg.tau if cfg.tau is not None else BASE_RATE
        if cfg.generator == "uniform-shattered":
            pool = base.family.domains
        else:  # point-mass
            pool = (unanimous_point_mass(hc),)
        matrix = ErrorMatrix(hc, pool)
        columns = range(len(pool))
        _, tau_star = matrix.minmax(columns)
        _check_margin(tau_star, tau, alpha, epsilon)
        uniform = uniform_weights(len(pool))
        meta = lambda n, trial: (uniform, columns, {})
        extra = {"tau_star": rational_to_str(tau_star)}
    picks = [] if cfg.epsilon is None else [
        numerator_cdf([w for _, _, w in d.weighted], d.denominator) for d in pool
    ]

    def one(n: int, trial: int) -> TrialRow:
        weights, columns, row_extra = meta(n, trial)
        train_seed = derive_seed(cfg.seed, "scaling", n, trial, "train")
        # empirical mode draws this many points per drawn domain
        points = None if cfg.epsilon is None else sample_size_for(
            cfg.epsilon, cfg.delta, n, matrix.rows
        )
        hat, max_train, er, _ = _learn(
            matrix, picks, weights, columns, n, train_seed, tau, points
        )
        seed = derive_seed(cfg.seed, "scaling", n, trial)
        return TrialRow("scaling", n, trial, seed, hat, er, max_train, row_extra)

    rows = [one(n, t) for n in cfg.n_grid for t in range(cfg.trials)]
    agg = _scaling_aggregates(cfg, rows, tau, alpha, extra)
    return ExperimentReport("scaling", cfg.to_dict(), tuple(rows), agg)


def _scaling_gamma(cfg: ScalingConfig, n: int) -> Fraction:
    gamma, coeff = cfg.gamma, cfg.gamma_coefficient
    if gamma is None:
        gamma = (Fraction(1, 2) if coeff is None else coeff) / n
    if not (0 < gamma < Fraction(1, 8)):
        raise ConfigError(f"gamma at n={n} is {gamma}, must lie in (0, 1/8)")
    return gamma


def _threshold(lbf: LowerBoundFamily, margin: Fraction) -> Fraction:
    """The flipped family's threshold floor less a margin, refused unless the
    margin lies in [0, floor] so that the threshold is not negative."""
    floor = lbf.threshold_floor()
    if not (0 <= margin <= floor):
        raise ConfigError(f"tau_margin must lie in [0, {floor}], got {margin}")
    return floor - margin


def _check_margin(
    tau_star: Fraction, tau: Fraction, alpha: Fraction, epsilon: Fraction
) -> None:
    if tau_star > tau - alpha - 2 * epsilon:
        raise ConfigError(
            f"optimal threshold {tau_star} exceeds tau - alpha - 2*epsilon = "
            f"{tau - alpha - 2 * epsilon}; the margin precondition fails"
        )


def _masked_exposure(
    pcc: PartialConceptClass, weights: Sequence[Fraction]
) -> tuple[Callable[[float], int], Callable[[int], tuple[Fraction, int]]]:
    """The point sampler, and the (1-mass, index) a bit mask of drawn points
    exposes: the first concept 0 on all of them in order of descending positive
    1-mass (a stable sort keeps the lowest index first), or (0, -1). Memoized."""
    if len(weights) != pcc.universe_size:
        raise ValueError(f"{len(weights)} weights for a universe of {pcc.universe_size}")
    draw = inverse_cdf(weights)
    masses = [
        sum((w for p, w in enumerate(weights) if one >> p & 1), start=ZERO)
        for _, one in pcc.masks
    ]
    zero_sets = [zero for zero, _ in pcc.masks]
    order = sorted((ci for ci, m in enumerate(masses) if m > 0), key=lambda ci: -masses[ci])

    @cache
    def exposure(mask: int) -> tuple[Fraction, int]:
        first = ((masses[ci], ci) for ci in order if zero_sets[ci] & mask == mask)
        return next(first, (ZERO, -1))

    return draw, exposure


def exposure_trial(
    pcc: PartialConceptClass,
    weights: Sequence[Fraction],
    n: int,
    rng: Any,
) -> tuple[Fraction, int, tuple[int, ...]]:
    """Draw n universe points and find the largest exact 1-mass among concepts
    evaluating to 0 on every drawn point. Returns (mass, concept index or -1,
    drawn points); a violation at rate gamma means mass > gamma."""
    draw, exposure = _masked_exposure(pcc, weights)
    points = tuple(draw(rng.random()) for _ in range(n))
    return (*exposure(sum(1 << p for p in set(points))), points)


def run_uniform_convergence(cfg: UniformConvergenceConfig) -> ExperimentReport:
    """How often a concept with large exact 1-mass looks all-zero on a sample.

    The universe is the built family's domain list under the uniform
    distribution; concepts are the induced error-threshold concepts. A trial's
    exposed mass is the largest 1-mass among concepts evaluating to 0 on every
    sampled point; a violation at rate gamma means exposed mass > gamma. A
    trial is scored from the set of points it drew, so its draws stop once
    every point has been seen.
    """
    base = large_k_family(cfg.family_alpha)
    query = DimensionQuery(cfg.tau, cfg.family_alpha)
    pcc = induce_partial_class(base.slice.hypothesis_class, base.family, query)
    dimension = partial_vc_dim(pcc).dimension
    universe = pcc.universe_size
    draw, exposure = _masked_exposure(pcc, (Fraction(1, universe),) * universe)
    full = (1 << universe) - 1

    def one(n: int, trial: int, seed: int, uniforms: Iterator[float]) -> TrialRow:
        # The row depends only on the set of drawn points, so draws after the
        # set is full change nothing.
        mask = 0
        for u in islice(uniforms, n):
            mask |= 1 << draw(u)
            if mask == full:
                break
        exposed, exposed_idx = exposure(mask)
        return TrialRow(
            "uniform-convergence", n, trial, seed, exposed_idx, exposed, None,
            {"distinct_points": mask.bit_count()},
        )

    rows = []
    for n in cfg.n_grid:
        seeds = derive_seeds(cfg.seed, "uc", n, count=cfg.trials)
        rows += map(one, repeat(n), range(cfg.trials), seeds, streams(seeds))
    tallies = Counter((r.n, r.er_exact) for r in rows)
    log_inv_delta = math.log(1.0 / float(cfg.delta))
    frequencies = []
    calibrated = None
    for c in cfg.c_grid:
        per_n = []
        ok = True
        prev = None
        for n in cfg.n_grid:
            gamma = c * (dimension * math.log(n) ** 2 + log_inv_delta) / n
            count = sum(k for (m, mass), k in tallies.items() if m == n and mass > gamma)
            freq = Fraction(count, cfg.trials)
            per_n.append({
                "n": n, "gamma": gamma, "count": count, "freq": float(freq),
            })
            if freq > cfg.delta:
                ok = False
            if prev is not None and freq > prev:
                ok = False
            prev = freq
        frequencies.append({"C": c, "per_n": per_n, "passes": ok})
        if ok and calibrated is None:
            calibrated = c
    agg = {
        "dimension": dimension,
        "delta": rational_to_str(cfg.delta),
        "frequencies": frequencies,
        "calibrated_c": calibrated,
    }
    return ExperimentReport("uniform-convergence", cfg.to_dict(), tuple(rows), agg)


def run_lower_bound(cfg: LowerBoundConfig) -> ExperimentReport:
    """Hide a uniform bit vector behind flipped domains and measure how often
    the learner's risk at tau' = lam/(1+lam) - margin exceeds gamma, plus the
    failure rate on unseen flipped-family indices."""
    lbf = large_k_lower_bound(cfg.family_alpha, cfg.tau)
    matrix = ErrorMatrix(lbf.hypothesis_class, lbf.extended_family.domains)
    tau_prime = _threshold(lbf, cfg.tau_margin)
    weights = lbf.meta_weights(cfg.gamma)

    def one(trial: int) -> TrialRow:
        bits, columns = _hidden_bits(lbf, cfg.seed, "lb", cfg.n, trial)
        _, tau_star = matrix.minmax(columns)
        _check_margin(tau_star, cfg.tau, lbf.alpha, ZERO)
        train_seed = derive_seed(cfg.seed, "lb", cfg.n, trial, "train")
        hat, max_train, er, indices = _learn(
            matrix, (), weights, columns, cfg.n, train_seed, tau_prime, None
        )
        seen = {i - 1 for i in indices if i >= 1}
        unseen = [t for t in range(lbf.d) if t not in seen]
        failed = [t for t in unseen if matrix.error(hat, columns[1 + t]) > tau_prime]
        seed = derive_seed(cfg.seed, "lb", cfg.n, trial)
        return TrialRow(
            "lower-bound", cfg.n, trial, seed, hat, er, max_train,
            {
                "b": "".join(map(str, bits)),
                "unseen": unseen,
                "failed_unseen": failed,
                "exceeds_gamma": bool(er > cfg.gamma),
                "tau_star": rational_to_str(tau_star),
            },
        )

    rows = [one(t) for t in range(cfg.trials)]
    exceed = sum(1 for r in rows if r.extra["exceeds_gamma"])
    unseen_total = sum(len(r.extra["unseen"]) for r in rows)
    unseen_failed = sum(len(r.extra["failed_unseen"]) for r in rows)
    agg = {
        "d": lbf.d,
        "gamma": rational_to_str(cfg.gamma),
        "lambda": rational_to_str(lbf.mix_weight),
        "tau_prime": rational_to_str(tau_prime),
        "exceed_count": exceed,
        "exceed_freq": exceed / cfg.trials,
        "unseen_total": unseen_total,
        "unseen_failed": unseen_failed,
        "per_unseen_failure_rate": (
            unseen_failed / unseen_total if unseen_total else None
        ),
    }
    return ExperimentReport("lower-bound", cfg.to_dict(), tuple(rows), agg)
