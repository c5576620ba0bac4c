"""Command-line entry point.

Subcommands: gdim, vcdim, verify-cert, learn,
construct {odd-even, large-k, product, lower-bound, adversarial},
divergence, cover, experiment {scaling, uniform-convergence, lower-bound}.

Rationals on the command line and in files are "p/q" strings; decimals are
rejected. Seeds resolve as --seed, then the config file's seed, then the
GENLAB_SEED environment variable, then a fixed default. All file writes are
atomic (temp file + rename), and reruns with identical inputs and seed are
byte-identical regardless of --threads.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

import genlab

from .core import GenlabError
from .serialize import _read_json, _staged, _typed


def _rational(text: str) -> Fraction:
    try:
        return genlab.rational_from_str(text)
    except GenlabError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _resolve_seed(cli_seed: int | None, config_seed: int | None = None) -> int:
    if cli_seed is not None:
        seed = cli_seed
    elif config_seed is not None:
        seed = config_seed
    else:
        env = os.environ.get("GENLAB_SEED")
        try:
            seed = int(env) if env is not None else genlab.DEFAULT_SEED
        except ValueError:
            raise ValueError(f"GENLAB_SEED must be a 64-bit unsigned integer, got {env!r}") from None
    if type(seed) is not int or not (0 <= seed < 1 << 64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _exact_str(result_exact: bool) -> str:
    return "true" if result_exact else "false"


def cmd_gdim(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    g = genlab.load_family(args.domains)
    query = genlab.DimensionQuery(args.tau, args.alpha, args.cap)
    result = genlab.gdim(hc, g, query)
    line = f"gdim={result.dimension} exact={_exact_str(result.exact)}"
    if args.cert_out:
        genlab.write_json_atomic(args.cert_out, genlab.certificate_to_dict(result.certificate))
        line += f" certificate={args.cert_out}"
    print(line)
    return 0


def cmd_vcdim(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    pcc = genlab.PartialConceptClass.from_hypothesis_class(hc)
    result = genlab.partial_vc_dim(pcc, args.cap)
    print(f"vcdim={result.dimension} exact={_exact_str(result.exact)}")
    return 0


def cmd_verify_cert(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    g = genlab.load_family(args.domains)
    cert = genlab.load_certificate(args.cert)
    ok = genlab.verify_certificate(cert, hc, g, genlab.DimensionQuery(args.tau, args.alpha))
    size = len(cert.domain_indices)
    if ok:
        print(f"certificate valid: {size} domains shattered at "
              f"tau={genlab.rational_to_str(args.tau)} alpha={genlab.rational_to_str(args.alpha)}")
        return 0
    print(f"certificate INVALID at tau={genlab.rational_to_str(args.tau)} "
          f"alpha={genlab.rational_to_str(args.alpha)}")
    return 1


def cmd_learn(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    meta = genlab.load_meta(args.meta)
    if meta.family.space != hc.space:
        raise genlab.SpaceMismatchError(f"class space {hc.space} != meta space {meta.family.space}")
    seed = _resolve_seed(args.seed)
    if (args.m is None) == (args.epsilon is None):
        raise ValueError("provide either --m or --epsilon" if args.m is None
                         else "--m and --epsilon exclude each other")
    m = args.m
    if m is None:
        m = genlab.sample_size_for(args.epsilon, args.delta, args.n, len(hc))
    ts = genlab.sample_training_set(meta, args.n, m, seed)
    table = genlab.estimate_errors(hc, ts)
    picked = genlab.minmax_erm(table)
    pooled = genlab.pooled_erm(table, genlab.uniform_weights(args.n))
    max_train = max(table.entries[picked])
    line = (f"minmax={picked} pooled={pooled} n={args.n} m={m} seed={seed} "
            f"max_train_err={genlab.rational_to_str(max_train)}")
    if args.out:
        genlab.write_json_atomic(args.out, {
            "training_set": genlab.training_set_to_dict(ts),
            "error_table": genlab.error_table_to_dict(table),
            "minmax_index": picked,
            "pooled_index": pooled,
            "max_train_err": genlab.rational_to_str(max_train),
        })
        line += f" out={args.out}"
    print(line)
    return 0


def cmd_construct_odd_even(args: argparse.Namespace) -> int:
    domain, slice_ = genlab.odd_even_domain(args.m)
    out = Path(args.out_dir)
    genlab.write_json_atomic(out / "domain.json", genlab.domain_to_dict(domain))
    genlab.write_hypothesis_class(out / "class.json", slice_.hypothesis_class)
    hc = slice_.hypothesis_class
    errors = [genlab.domain_error(hc.member(i), domain) for i in range(min(len(hc), 2))]
    line = f"m={args.m} space={slice_.space} odd_err={genlab.rational_to_str(errors[0])}"
    if len(errors) > 1:
        line += f" even_err={genlab.rational_to_str(errors[1])}"
    print(line + f" out={out}")
    return 0


def cmd_construct_large_k(args: argparse.Namespace) -> int:
    fam = genlab.large_k_family(args.alpha)
    out = Path(args.out_dir)
    genlab.write_hypothesis_class(out / "class.json", fam.slice.hypothesis_class)
    genlab.write_json_atomic(out / "family.json", genlab.family_to_dict(fam.family))
    genlab.write_json_atomic(out / "certificate.json",
                             genlab.certificate_to_dict(fam.certificate()))
    for j, domain in enumerate(fam.family.domains, start=1):
        genlab.write_json_atomic(out / f"domain_{j}.json", genlab.domain_to_dict(domain))
    print(f"k={fam.k} hypotheses={len(fam.slice.hypothesis_class)} "
          f"domains={len(fam.family)} out={out}")
    return 0


def cmd_construct_product(args: argparse.Namespace) -> int:
    base = genlab.large_k_family(args.alpha)
    hc, family = genlab.product_family(base, args.d, cap=args.cap)
    out = Path(args.out_dir)
    genlab.write_hypothesis_class(out / "class.json", hc)
    genlab.write_json_atomic(out / "family.json", genlab.family_to_dict(family))
    print(f"k={base.k} d={args.d} hypotheses={len(hc)} domains={len(family)} out={out}")
    return 0


def cmd_construct_lower_bound(args: argparse.Namespace) -> int:
    lbf = genlab.large_k_lower_bound(args.alpha, args.tau, args.lb_alpha)
    out = Path(args.out_dir)
    genlab.write_hypothesis_class(out / "class.json", lbf.hypothesis_class)
    genlab.write_json_atomic(out / "family.json", genlab.family_to_dict(lbf.extended_family))
    genlab.write_json_atomic(out / "certificate.json",
                             genlab.certificate_to_dict(lbf.certificate))
    print(f"d={lbf.d} lambda={genlab.rational_to_str(lbf.mix_weight)} "
          f"floor={genlab.rational_to_str(lbf.threshold_floor())} "
          f"certificate_valid={_exact_str(lbf.certificate_valid)} out={out}")
    return 0


def cmd_construct_adversarial(args: argparse.Namespace) -> int:
    lbf = genlab.large_k_lower_bound(args.alpha, args.tau, args.lb_alpha)
    if args.b is not None:
        if len(args.b) != lbf.d or any(c not in "01" for c in args.b):
            raise ValueError(f"--b must be {lbf.d} characters of 0/1, got {args.b!r}")
        bits = tuple(int(c) for c in args.b)
    else:
        rng = genlab.rng_for(_resolve_seed(args.seed), "b")
        bits = tuple(rng.randrange(2) for _ in range(lbf.d))
    meta = genlab.adversarial_meta(lbf, bits, args.gamma)
    out = Path(args.out_dir)
    genlab.write_hypothesis_class(out / "class.json", lbf.hypothesis_class)
    genlab.write_json_atomic(out / "meta.json", genlab.meta_to_dict(meta))
    print(f"d={lbf.d} gamma={genlab.rational_to_str(args.gamma)} "
          f"b={''.join(map(str, bits))} "
          f"clean_weight={genlab.rational_to_str(meta.weights[0])} out={out}")
    return 0


def cmd_divergence(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    d1 = genlab.load_domain(args.d1)
    d2 = genlab.load_domain(args.d2)
    value = genlab.h_divergence(hc, d1, d2, genlab.DivergenceQuery(args.tau))
    kind = "restricted" if args.tau is not None else "full"
    print(f"divergence={genlab.rational_to_str(value)} kind={kind}")
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    hc = genlab.load_hypothesis_class(args.class_path)
    g = genlab.load_family(args.domains)
    cover, valid = genlab.checked_cover(g, hc, args.radius, genlab.DivergenceQuery(args.tau))
    line = (f"centers={len(cover.center_indices)} "
            f"radius={genlab.rational_to_str(args.radius)} valid={_exact_str(valid)}")
    if args.out:
        genlab.write_json_atomic(args.out, genlab.cover_to_dict(cover))
        line += f" out={args.out}"
    print(line)
    return 0


# Each experiment's config class and runner by name, looked up in genlab only
# when the experiment runs, so other commands never import genlab.experiments.
_EXPERIMENTS = {
    "scaling": ("ScalingConfig", "run_scaling"),
    "uniform-convergence": ("UniformConvergenceConfig", "run_uniform_convergence"),
    "lower-bound": ("LowerBoundConfig", "run_lower_bound"),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    if args.float_digits < 0:
        raise ValueError(f"float digits must be at least 0, got {args.float_digits}")
    name = args.experiment_name
    raw = _typed(_read_json(args.config), dict, f"{name} config")
    raw["seed"] = _resolve_seed(args.seed, raw.get("seed"))
    config_cls, runner = (getattr(genlab, n) for n in _EXPERIMENTS[name])
    cfg = config_cls.from_dict(raw)
    report = runner(cfg)
    out = Path(args.out_dir)
    # Both reports are staged and filled in one pass over the rows, so neither
    # text is ever whole, and a row that cannot be written leaves both as they were.
    with _staged(out / "report.json") as json_file, _staged(out / "report.csv") as csv_file:
        for json_piece, csv_piece in report.chunks(args.float_digits):
            json_file.write(json_piece)
            csv_file.write(csv_piece)
    genlab.write_json_atomic(out / "series.json", report.series())
    agg = report.aggregates
    if name == "scaling":
        head = f"slope={agg['slope']} inversions={agg['inversions']}"
    elif name == "uniform-convergence":
        head = f"dimension={agg['dimension']} calibrated_c={agg['calibrated_c']}"
    else:
        head = (f"exceed_freq={agg['exceed_freq']:.3f} "
                f"unseen_failure_rate={agg['per_unseen_failure_rate']}")
    print(f"{name}: {head} trials={cfg.trials} seed={cfg.seed} report={out / 'report.json'}")
    return 0


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=_rational, required=True, help="error threshold, p/q")
    p.add_argument("--alpha", type=_rational, required=True, help="margin, p/q")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genlab",
        description="Exact-arithmetic toolkit for learning across domain families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gdim", help="shattering dimension of a family under a class")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--domains", required=True)
    _add_query_flags(p)
    p.add_argument("--cap", type=int, default=None, help="search size cap")
    p.add_argument("--cert-out", default=None, help="write the witness certificate here")
    p.set_defaults(func=cmd_gdim)

    p = sub.add_parser("vcdim", help="VC dimension of a hypothesis class")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_vcdim)

    p = sub.add_parser("verify-cert", help="check a shattering certificate; exit 1 if invalid")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--domains", required=True)
    p.add_argument("--cert", required=True)
    _add_query_flags(p)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("learn", help="sample domains and run both ERM rules")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--n", type=int, required=True, help="number of domain draws")
    p.add_argument("--m", type=int, default=None, help="points per domain")
    p.add_argument("--epsilon", type=_rational, default=None,
                   help="estimation accuracy; sets m when --m is absent")
    p.add_argument("--delta", type=_rational, default=Fraction(1, 10))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write training set + table JSON here")
    p.set_defaults(func=cmd_learn)

    c = sub.add_parser("construct", help="emit the hard instances as JSON files")
    csub = c.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("odd-even", help="parity-anchored domain over a threshold slice")
    p.add_argument("--m", type=int, required=True, help="odd number of parity points")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_construct_odd_even)

    p = csub.add_parser("large-k", help="k-domain family shattered at margin alpha")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_construct_large_k)

    p = csub.add_parser("product", help="d-coordinate product lift of the large-k family")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap", type=int, default=4096, help="largest allowed product class")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_construct_product)

    p = csub.add_parser("lower-bound", help="extend the family with flipped mixtures")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--tau", type=_rational, default=Fraction(3, 10))
    p.add_argument("--lb-alpha", type=_rational, default=None,
                   help="margin for the mixing weight; defaults to --alpha")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_construct_lower_bound)

    p = csub.add_parser("adversarial", help="meta-distribution hiding a bit vector")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument("--b", default=None, help="bit string; random when absent")
    p.add_argument("--tau", type=_rational, default=Fraction(3, 10))
    p.add_argument("--lb-alpha", type=_rational, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_construct_adversarial)

    p = sub.add_parser("divergence", help="class-restricted divergence of two domains")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--tau", type=_rational, default=None,
                   help="restrict to hypotheses with min error <= tau")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("cover", help="greedy radius-cover of a family")
    p.add_argument("--class", dest="class_path", required=True)
    p.add_argument("--domains", required=True)
    p.add_argument("--radius", type=_rational, required=True)
    p.add_argument("--tau", type=_rational, default=None)
    p.add_argument("--out", default=None, help="write the cover JSON here")
    p.set_defaults(func=cmd_cover)

    e = sub.add_parser("experiment", help="run a seeded experiment suite")
    esub = e.add_subparsers(dest="experiment_name", required=True)
    for name in _EXPERIMENTS:
        p = esub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", dest="out_dir", required=True,
                       help="output directory for report.json/report.csv/series.json")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config file's seed")
        p.add_argument("--threads", type=int, default=1,
                       help="at least 1; trials run on one thread, so it changes nothing")
        p.add_argument("--float-digits", type=int, default=12,
                       help="significant digits for float echo columns")
        p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
