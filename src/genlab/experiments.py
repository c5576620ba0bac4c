"""Seeded experiment harnesses with exact risk bookkeeping.

Three suites: `scaling` tracks how the min-max learner's domain risk falls as
the number of sampled domains grows; `uniform-convergence` measures how often
some concept hides positive mass behind an all-zero sample; `lower-bound` hides
a random bit vector behind flipped domains and counts how often the learner is
wrong where it has not looked.

Every trial is reproducible from (config, master seed) alone: trial seeds are
derived by stable hashing and error accounting is exact. Trials run one after
another on the calling thread: they are pure-Python `Fraction` work, so worker
threads would only contend for the interpreter lock. Configs are read from
JSON by `serialize`'s readers, so their fields follow the data files' rules:
integers are exact JSON integers and rationals are "p/q" strings.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Any, Callable, ClassVar, Sequence, TypeVar

from .constructions import (
    BASE_RATE,
    LowerBoundFamily,
    large_k_family,
    lower_bound_family,
    unanimous_point_mass,
)
from .core import (
    ConfigError,
    ErrorMatrix,
    LabeledDistribution,
    ZERO,
    argmin_max,
)
from .dimensions import (
    DimensionQuery,
    PartialConceptClass,
    induce_partial_class,
    partial_vc_dim,
)
from .learner import (
    draw_atoms,
    draw_domain_indices,
    inverse_cdf,
    sample_size_for,
    uniform_weights,
)
from .seeding import derive_seed, derive_seeds, rng_for
from .serialize import _field, _int, _typed, rational_from_str, rational_to_str

SCALING_GENERATORS = ("adversarial-meta", "uniform-shattered", "point-mass")


def _check_grid(grid: Sequence[int], name: str = "n") -> tuple[int, ...]:
    grid = tuple(grid)
    if not grid or any(type(n) is not int or n < 1 for n in grid):
        raise ValueError(f"{name} grid must list positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    return grid


# Config value readers, keyed by the field annotation; each takes the JSON
# value and the name a refusal gives it.
_PARSERS: dict[str, Callable[[Any, str], Any]] = {
    "str": lambda value, name: _typed(value, str, name),
    "int": _int,
    "tuple[int, ...]": lambda value, name: tuple(_int(v, name) for v in _typed(value, list, name)),
    "Fraction": rational_from_str,
    "Fraction | None": rational_from_str,
}


_C = TypeVar("_C", bound="_Config")


class _Config:
    """JSON form shared by the experiment configs: "experiment" plus one key
    per dataclass field. A key that is absent or null takes the field's
    default; a present value, zero included, is kept."""

    experiment: ClassVar[str]

    @classmethod
    def from_dict(cls: type[_C], obj: dict[str, Any]) -> _C:
        what = f"{cls.experiment} config"
        specs = fields(cls)
        unknown = set(_typed(obj, dict, what)) - {f.name for f in specs} - {"experiment"}
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
        values = {}
        for f in specs:
            value = _field(obj, f.name, what, default=f.default)
            if value is not f.default:
                values[f.name] = _PARSERS[f.type](value, f"{what} {f.name!r}")
        return cls(**values)

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
        if self.generator not in SCALING_GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        object.__setattr__(self, "n_grid", _check_grid(self.n_grid))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.tau is not None and not (0 <= self.tau <= 1):
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError(f"alpha must lie in [0, inf), got {self.alpha}")
        if self.tau_margin < 0:
            raise ValueError(f"tau_margin must lie in [0, inf), got {self.tau_margin}")


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", _check_grid(self.n_grid))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        object.__setattr__(self, "c_grid", _check_grid(self.c_grid, "c"))
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


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
        if self.n < 1 or self.trials < 1:
            raise ValueError("need n >= 1 and at least one trial")
        if not (0 < self.gamma < Fraction(1, 8)):
            raise ValueError(f"gamma must lie in (0, 1/8), got {self.gamma}")
        if self.tau_margin < 0:
            raise ValueError(f"tau_margin must lie in [0, inf), got {self.tau_margin}")


@dataclass(frozen=True)
class TrialRow:
    experiment: str
    n: int
    trial: int
    seed: int
    hypothesis_index: int
    er_exact: Fraction
    max_train_err: Fraction | None
    extra: dict[str, Any]


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict[str, Any]
    rows: tuple[TrialRow, ...]
    aggregates: dict[str, Any]

    def to_csv_text(self, float_digits: int = 12) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["experiment", "n", "trial", "seed", "hypothesis_index", "er_exact",
             "er_float", "max_train_err", "extra"]
        )
        # a report repeats few distinct masses over many rows: format each once,
        # behind one Fraction hash per lookup
        mass = cache(lambda q: (rational_to_str(q), format(float(q), f".{float_digits}g")))
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        for r in self.rows:
            writer.writerow([
                r.experiment,
                r.n,
                r.trial,
                r.seed,
                r.hypothesis_index,
                *mass(r.er_exact),
                "" if r.max_train_err is None else mass(r.max_train_err)[0],
                encode(r.extra),
            ])
        return buf.getvalue()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "aggregates": self.aggregates,
            "rows": [
                {
                    "experiment": r.experiment,
                    "n": r.n,
                    "trial": r.trial,
                    "seed": r.seed,
                    "hypothesis_index": r.hypothesis_index,
                    "er_exact": rational_to_str(r.er_exact),
                    "er_float": float(r.er_exact),
                    "max_train_err": (
                        None if r.max_train_err is None
                        else rational_to_str(r.max_train_err)
                    ),
                    "extra": r.extra,
                }
                for r in self.rows
            ],
        }

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


def _flipped_pool(
    family_alpha: Fraction, tau: Fraction
) -> tuple[LowerBoundFamily, tuple[LabeledDistribution, ...], ErrorMatrix]:
    """Flipped extension of a built family, its pool of domains (the clean
    domain, the d shattered domains, then their d flipped mixtures) and the
    pool's error matrix."""
    base = large_k_family(family_alpha)
    hc = base.slice.hypothesis_class
    lbf = lower_bound_family(
        hc, base.family, unanimous_point_mass(hc), base.certificate(), tau, family_alpha
    )
    pool = (lbf.clean_domain,) + tuple(
        base.family.domains[j] for j in lbf.shattered_indices
    ) + lbf.flipped
    return lbf, pool, ErrorMatrix(hc, pool)


def _hidden_bits(
    seed: int, tag: str, n: int, trial: int, d: int
) -> tuple[tuple[int, ...], list[int]]:
    """A trial's hidden bit vector, and the pool column of each domain of its
    meta in order: the clean domain, then domain t or its flipped mixture as
    bit t says."""
    rng = rng_for(seed, tag, n, trial, "b")
    bits = tuple(rng.randrange(2) for _ in range(d))
    return bits, [0] + [1 + t + (d if bit else 0) for t, bit in enumerate(bits)]


def _learn(
    matrix: ErrorMatrix,
    picks: Sequence[Callable[[float], int]],
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
    draw, counted per atom, with picks[c] the point sampler of column c.
    Returns the chosen hypothesis, its largest exact error over the drawn
    domains, its domain risk at tau, and the drawn meta indices.
    """
    indices, _ = draw_domain_indices(weights, n, train_seed)
    if points is None:
        hat, max_train = matrix.minmax(columns[i] for i in indices)
    else:
        samples = {
            matrix.mistakes(c, draw_atoms(picks[c], points, train_seed, i))
            for i, c in enumerate(columns[j] for j in indices)
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
        lbf, pool, matrix = _flipped_pool(cfg.family_alpha, BASE_RATE)
        tau = cfg.tau if cfg.tau is not None else lbf.threshold_floor() - cfg.tau_margin
        # gamma falls as n grows, so a gamma out of range is out at the first n
        gammas = {n: _scaling_gamma(cfg, n) for n in cfg.n_grid}
        weights_at = {n: lbf.meta_weights(gamma) for n, gamma in gammas.items()}

        def meta(n: int, trial: int) -> tuple[Sequence[Fraction], Sequence[int], dict[str, Any]]:
            bits, columns = _hidden_bits(cfg.seed, "scaling", n, trial, lbf.d)
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
        inverse_cdf([a.mass for a in d.atoms]) for d in pool
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
    if cfg.gamma is not None:
        gamma = cfg.gamma
    else:
        coeff = cfg.gamma_coefficient
        if coeff is None:
            coeff = Fraction(1, 2)
        gamma = coeff / n
    if not (0 < gamma < Fraction(1, 8)):
        raise ConfigError(f"gamma at n={n} is {gamma}, must lie in (0, 1/8)")
    return gamma


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
    # One generator, reseeded per trial at C level: the state of random.Random(seed).
    rng = random.Random()
    reseed, uniform = super(random.Random, rng).seed, rng.random

    def one(n: int, trial: int, seed: int) -> TrialRow:
        # The generator serves this trial alone, and the row depends only on
        # the set of drawn points, so draws after the set is full change nothing.
        reseed(seed)
        mask = 0
        for _ in range(n):
            mask |= 1 << draw(uniform())
            if mask == full:
                break
        exposed, exposed_idx = exposure(mask)
        return TrialRow(
            "uniform-convergence", n, trial, seed, exposed_idx, exposed, None,
            {"distinct_points": mask.bit_count()},
        )

    rows = [one(n, t, seed) for n in cfg.n_grid
            for t, seed in enumerate(derive_seeds(cfg.seed, "uc", n, count=cfg.trials))]
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
    lbf, _, matrix = _flipped_pool(cfg.family_alpha, cfg.tau)
    tau_prime = lbf.threshold_floor() - cfg.tau_margin
    weights = lbf.meta_weights(cfg.gamma)

    def one(trial: int) -> TrialRow:
        bits, columns = _hidden_bits(cfg.seed, "lb", cfg.n, trial, lbf.d)
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
