"""Command-line front end.

Subcommands: verify, corpus, search, counterexample, mc, show.  Every JSON
report embeds a run manifest (subcommand, parameters, seed, version, input
digests, wall clock, outcome) so any reported verdict can be re-run from
the report alone.  Exit codes: 0 all holds/vacuous, 1 genuine violation,
2 usage or input error, 3 internal soundness guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import checks, corpus as corpus_mod, montecarlo
from ._version import __version__
from .counterexample import verify_counterexample
from .dists import (DEFAULT_SUPPORT_CAP, MODES, STRICT, Norm, default_norm,
                    tail_curve)
from .montecarlo import MC_CLAIMS, SamplerSpec, estimate_tail, mc_check
from .reports import HOLDS, VACUOUS, VIOLATED, render
from .search import (N_ATOMS, SEED_LIMIT, SearchSpace, SoundnessViolation,
                     search)
from .specfile import dist_to_jsonable, read_dist

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _load(path, digests: dict):
    """Read a law file once, parse it, and record the sha256 of exactly the
    bytes parsed (a pipe cannot be read twice)."""
    data = Path(path).read_bytes()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    return read_dist(data, path)


def _manifest(args, digests: dict, outcome: str) -> dict:
    return {"subcommand": args.subcommand,
            "params": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": getattr(args, "seed", None), "version": __version__,
            "input_digests": digests,
            "wall_clock": datetime.now(timezone.utc).isoformat(),
            "outcome": outcome}


def _emit(doc: dict, out: "str | None") -> None:
    """Write the report to --out, if given, then print it; a file that
    cannot be written fails before anything is printed."""
    text = render(doc)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise OSError(f"cannot write --out {out}: "
                          f"{exc.strerror or exc}") from exc
    print(text)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _norm(text: str) -> Norm:
    try:
        return Norm(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown norm {text!r}; choose abs1d, sup, or euclidean")


def _positive(text: str, least: int = 1) -> int:
    """An int >= least, by default positive: a cap, count, size or dim."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(
            f"must be a {'nonnegative' if least == 0 else 'positive'} "
            f"integer, got {text!r}")
    return value


_nonnegative = functools.partial(_positive, least=0)   # a count that may be 0


def _seed(limit: int):
    """The type of a --seed that keys a Philox generator: an int in
    [0, limit), limit a power of two."""
    def seed(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = -1
        if not 0 <= value < limit:
            raise argparse.ArgumentTypeError(
                f"must be an integer in [0, 2**{limit.bit_length() - 1}), "
                f"got {text!r}")
        return value
    return seed


def _weights(text: str) -> "list[Fraction]":
    """Comma-separated rationals; an empty entry, a trailing comma's too,
    is refused with its 1-based position."""
    parts = text.split(",")
    for i, part in enumerate(parts, 1):
        if part == "":
            raise argparse.ArgumentTypeError(
                f"empty entry at position {i} of {text!r}")
    return [_rational(part) for part in parts]


def _join_weights(argv: "list[str]") -> "list[str]":
    """Rewrite `--weights VALUE` as `--weights=VALUE`: argparse would read a
    list that starts with a negative weight, such as -1,1/2, as an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--weights" and i + 1 < len(argv) \
                and not argv[i + 1].startswith("--"):
            out.append(f"--weights={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def cmd_verify(args) -> int:
    spec = checks.CLAIMS[checks.ALIASES.get(args.claim, args.claim)]
    given = {"j": args.j, "k": args.k, "t": args.t, "alphas": args.weights}
    digests = {}
    if spec.laws > 1:
        if len(args.files) > spec.laws:
            raise ValueError(f"{spec.claim_id} takes one file (Y = X) or two")
        jobs = [(" + ".join(str(f) for f in args.files),
                 [_load(f, digests) for f in args.files])]
    else:
        jobs = [(str(f), [_load(f, digests)]) for f in args.files]
    reports = [{"file": label, "report": rep} for label, laws in jobs
               for rep in checks.claim_reports(
                   spec, laws, args.norm, given, args.c1, args.c2,
                   args.lhs_mode, args.rhs_mode, args.cap)]
    args.lhs_mode = args.lhs_mode or STRICT   # the manifest echoes the default
    ok = all(r["report"].status in (HOLDS, VACUOUS) for r in reports)
    outcome = "all hold" if ok else "violation found"
    _emit({"manifest": _manifest(args, digests, outcome),
           "reports": reports}, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_corpus(args) -> int:
    claims = corpus_mod.normalize_claims(args.claims.split(",")) \
        if args.claims else None
    for dim in args.dims:
        if args.norms and not corpus_mod.norms_at(args.norms, dim):
            raise ValueError(
                f"--norms {','.join(n.value for n in args.norms)} defines "
                f"no norm in --dims {dim} (abs1d needs dimension 1)")
    config = corpus_mod.CorpusConfig(
        seed=args.seed, count=args.count, max_atoms=args.max_atoms,
        num_range=args.num_range, denominator=args.denominator,
        max_k=args.max_k, dims=tuple(args.dims), norms=args.norms,
        weight_vectors=args.weight_vectors)
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write --out-dir {args.out_dir}: "
                      f"{exc.strerror or exc}") from exc
    report = corpus_mod.run_corpus(config, claims, cap=args.cap)
    outcome = ("violation found" if report.has_violations
               else f"all hold ({report.total_checks} checks)")
    want_json = args.json or not args.csv
    want_csv = args.csv or not args.json
    written = []
    if want_json:
        path = outdir / "corpus.json"
        path.write_text(render({"manifest": _manifest(args, {}, outcome),
                                "corpus": report}) + "\n")
        written.append(str(path))
    if want_csv:
        path = outdir / "corpus.csv"
        corpus_mod.write_csv(report, path)
        written.append(str(path))
    print(f"{outcome}; instances={config.count} "
          f"checks={report.total_checks} violations={report.violated} "
          f"skipped={len(report.skipped)}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_VIOLATION if report.has_violations else EXIT_OK


def cmd_search(args) -> int:
    space = SearchSpace(
        n_atoms=args.atoms, j=args.j, k=args.k, c2=args.c2,
        value_lo=args.value_lo, value_hi=args.value_hi, norm=args.norm,
        lattice_denominator=args.lattice_denominator,
        prob_denominator=args.prob_denominator)
    result = search(space, budget=args.budget, restarts=args.restarts,
                    seed=args.seed, cap=args.cap)
    outcome = f"achieved_ratio={result.achieved_ratio}"
    _emit({"manifest": _manifest(args, {}, outcome), "result": result},
          args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.M is not None and args.cap is not None:
        raise ValueError("counterexample takes --cap only without --M: "
                         "the cap bounds the scan for M")
    report = verify_counterexample(args.N, M=args.M, cap=args.cap)
    verified = bool(report.found and report.centered_holds
                    and report.extended_holds
                    and report.refutation["fails"])
    outcome = "counterexample verified" if verified else (
        "no admissible M under cap" if not report.found
        else "bounds failed to verify")
    _emit({"manifest": _manifest(args, {}, outcome),
           "counterexample": report}, args.out)
    return EXIT_OK if verified else EXIT_VIOLATION


def _sampler_from_args(args) -> "tuple[SamplerSpec, dict]":
    """The sampler of the mc flags that were set and of a --dist file: the
    family table fills in the defaults and refuses what it does not read."""
    digests, dim = {}, {} if args.dim is None else {"dim": args.dim}
    params = {name: value for defaults, _, _ in montecarlo.FAMILIES.values()
              for name in defaults
              if (value := getattr(args, name, None)) is not None}
    if args.dist:
        dist = _load(args.dist, digests)
        params["atoms"] = dist_to_jsonable(dist)["atoms"]
        dim.setdefault("dim", dist.dim)
    elif args.family == "discrete":
        raise ValueError("discrete family needs --dist FILE")
    return SamplerSpec(args.family, params, **dim), digests


def cmd_mc(args) -> int:
    spec, digests = _sampler_from_args(args)
    t_grid = args.t or [Fraction(1)]
    # row i is keyed by seed + i, or by mc_check's two keys per row
    limit = montecarlo.mc_seed_limit(len(t_grid)) if args.claim \
        else montecarlo.SEED_LIMIT - len(t_grid) + 1
    if args.seed >= limit:
        raise ValueError(f"--seed must be below {limit} for "
                         f"{len(t_grid)} thresholds, got {args.seed}")
    if args.j is not None and not args.claim:
        raise ValueError("mc without --claim does not take --j")
    if args.claim:
        verdict = mc_check(
            args.claim, spec, args.j, args.k, t_grid, c1=args.c1, c2=args.c2,
            weights=args.weights, norm=args.norm, n_samples=args.n,
            seed=args.seed, delta=args.delta)
        args.k = verdict.params["k"]   # echo the k checked, maybe a default
        _emit({"manifest": _manifest(args, digests, verdict.status),
               "check": verdict}, args.out)
        return EXIT_VIOLATION if verdict.status == VIOLATED else EXIT_OK
    args.k = 2 if args.k is None else args.k
    estimates = []
    for i, t in enumerate(t_grid):
        est = estimate_tail(spec, args.k, t, norm=args.norm,
                            weights=args.weights, n_samples=args.n,
                            seed=args.seed + i, delta=args.delta)
        estimates.append({"t": t, "estimate": est})
    _emit({"manifest": _manifest(args, digests, f"{len(estimates)} estimates"),
           "estimates": estimates}, args.out)
    return EXIT_OK


def cmd_show(args) -> int:
    dist = _load(args.file, {})
    norm = args.norm or default_norm(dist.dim)
    print(f"{args.file}: dim={dist.dim}, {len(dist)} atoms")
    for x, p in sorted(dist.atoms.items()):
        loc = x[0] if dist.dim == 1 else tuple(map(str, x))
        print(f"  P(X = {loc}) = {p}  (~{float(p):.6g})")
    curve = tail_curve(dist, norm)
    label = ("||x||^2" if norm is Norm.EUCLIDEAN else "||x||")
    print(f"tail curve under {norm.value} (thresholds in {label}):")
    print(f"  Pr(||X|| > t) = 1 for t < {curve.criticals[0]}")
    for q, v in zip(curve.criticals, curve.values):
        print(f"  Pr(||X|| > t) = {v}  (~{float(v):.6g}) "
              f"for t in [{q}, next)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged and
    no handler mutates a default it returns (the --dims list)."""
    return _parsers()[0]


def _parse(argv: "list[str]") -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) parses it, with the
    same output and exit status on --help, --version and every usage error,
    but one pass over a subcommand's arguments: its own parser reads them,
    and the top-level parser reports the ones it does not take.  Anything
    that does not start with a subcommand goes to the top-level parser."""
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.subcommand = argv[0]
    return args


@functools.cache
def _parsers() -> "tuple[argparse.ArgumentParser, dict]":
    """The top-level parser and its subcommands' parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="iidtails",
        description="Exact verification of tail-comparison inequalities "
                    "for sums of i.i.d. random variables.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("verify", help="run one checker on distribution files")
    p.add_argument("--claim", required=True,
                   choices=tuple(checks.CLAIMS) + tuple(checks.ALIASES))
    p.add_argument("--c1", type=_rational, default=None)
    p.add_argument("--c2", type=_rational, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=_rational, default=None,
                   help="threshold for lemma2/corollary3")
    p.add_argument("--weights", type=_weights, default=None,
                   help="comma-separated rationals for corollary5")
    p.add_argument("--norm", type=_norm, default=None)
    p.add_argument("--lhs-mode", choices=MODES, default=None,
                   help="default strict")
    p.add_argument("--rhs-mode", choices=MODES, default=None)
    p.add_argument("--cap", type=_positive, default=DEFAULT_SUPPORT_CAP)
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("corpus", help="random corpus sweep over all claims")
    p.add_argument("--seed", type=_seed(corpus_mod.SEED_LIMIT), default=0)
    p.add_argument("--count", type=_nonnegative, default=100)
    p.add_argument("--claims", default=None,
                   help="comma-separated claim names (default: all)")
    p.add_argument("--max-atoms", type=_positive, default=5)
    p.add_argument("--num-range", type=_positive, default=8)
    p.add_argument("--denominator", type=_positive, default=4)
    p.add_argument("--max-k", type=_positive, default=6)
    p.add_argument("--dims", type=lambda s: list(map(_positive, s.split(","))),
                   default=[1])
    p.add_argument("--norms", type=lambda s: tuple(map(_norm, s.split(","))),
                   help="default: abs1d when every dim is 1, else sup")
    p.add_argument("--weight-vectors", type=_nonnegative, default=2)
    p.add_argument("--cap", type=_positive, default=DEFAULT_SUPPORT_CAP)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true",
                   help="write corpus.json (default: both artifacts)")
    p.add_argument("--csv", action="store_true",
                   help="write corpus.csv (default: both artifacts)")
    p.set_defaults(func=cmd_corpus)

    p = subs.add_parser("search", help="extremal search for the tail ratio")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c2", type=_rational, required=True)
    p.add_argument("--atoms", type=int, choices=N_ATOMS, default=3)
    p.add_argument("--budget", type=_positive, default=10_000)
    p.add_argument("--restarts", type=_positive, default=8)
    p.add_argument("--seed", type=_seed(SEED_LIMIT), default=0)
    p.add_argument("--value-lo", type=_rational, default=Fraction(-4))
    p.add_argument("--value-hi", type=_rational, default=Fraction(4))
    p.add_argument("--lattice-denominator", type=_positive, default=16)
    p.add_argument("--prob-denominator", type=_positive, default=64)
    p.add_argument("--norm", type=_norm, default=Norm.ABS1D)
    p.add_argument("--cap", type=_positive, default=DEFAULT_SUPPORT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("counterexample",
                        help="exact weighted-sum failure instance")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="scan cap when --M is omitted")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_counterexample)

    p = subs.add_parser("mc", help="Monte Carlo estimate or claim check")
    p.add_argument("--claim", default=None, choices=MC_CLAIMS)
    p.add_argument("--family", required=True,
                   choices=tuple(montecarlo.FAMILIES))
    p.add_argument("--dist", default=None, help="dist file for discrete")
    # the families' parameters, each an exact rational passed only when set
    for defaults, _, _ in montecarlo.FAMILIES.values():
        for name in defaults:
            if name != "atoms":   # a discrete law comes from --dist
                p.add_argument(f"--{name}", type=_rational)
    p.add_argument("--dim", type=int)
    p.add_argument("--j", type=int, default=None,
                   help="left index S_j, for claims that read one")
    p.add_argument("--k", type=int, default=None,
                   help="right index S_k (default: the claim's, as in "
                        "verify; 2 without --claim)")
    p.add_argument("--t", type=_rational, action="append", default=None,
                   help="threshold; repeat for a grid")
    p.add_argument("--weights", type=_weights, default=None)
    p.add_argument("--c1", type=_rational, default=None)
    p.add_argument("--c2", type=_rational, default=None)
    p.add_argument("--n", type=_nonnegative, default=100_000)
    p.add_argument("--seed", type=_seed(montecarlo.SEED_LIMIT), default=0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--norm", type=_norm, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mc)

    p = subs.add_parser("show", help="pretty-print a dist file + tail curve")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--norm", type=_norm, default=None)
    p.set_defaults(func=cmd_show)

    return parser, subs.choices


def main(argv=None) -> int:
    try:
        args = _parse(_join_weights(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SoundnessViolation as exc:
        print(f"soundness guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except checks.Refused as exc:   # the library's judgement, named by flag
        flag = "--weights" if exc.name == "alphas" else \
            "--" + exc.name.replace("_", "-")
        print(f"error: {exc.template.replace('{name}', flag)}",
              file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
