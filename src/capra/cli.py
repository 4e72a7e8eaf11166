"""Command-line front end: norm evaluation, envelope surfaces, verification.

The CLI performs no arithmetic of its own; every printed value comes from a
library call.  Exit codes: 0 success, 1 failed verification checks, 2 usage
or parse errors, 3 domain errors (the message names the violated
precondition; ``io-error`` for a file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys


def _fmt(value: float) -> str:
    from .numerics import format_extreal

    return format_extreal(value, "{:.12g}".format)


def _parse_point(text: str):
    import numpy as np

    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"invalid-point: could not parse point {text!r}: {exc}") from None


def _parse_nu(text: str):
    from .norms import NormalizationSpec

    if not text.startswith("lp:"):
        raise ValueError(f"invalid-nu: normalization must be 'lp:<p>' (got {text!r})")
    try:
        p = float(text[3:])
    except ValueError:
        raise ValueError(f"invalid-nu: p in {text!r} is not a number") from None
    return NormalizationSpec.lp(p)


def _parse_phi(text: str, dim: int):
    from .norms import PhiSpec

    t = text.strip().lower()
    if t == "id":
        return PhiSpec.identity(dim)
    if t.endswith("*id"):
        try:
            scale = float(t[:-3])
        except ValueError:
            raise ValueError(f"invalid-phi: scale {t[:-3]!r} is not a number") from None
        return PhiSpec.scaled_identity(scale, dim)
    return PhiSpec.from_values(text.split(","))


def _parse_function(text: str, dim: int):
    from .conjugacy import ZeroHomFnSpec

    if text == "l0":
        return ZeroHomFnSpec.l0(dim)
    if text == "zero":
        return ZeroHomFnSpec.constant_zero()
    if text.startswith("phi:"):
        return ZeroHomFnSpec.phi_l0(_parse_phi(text[4:], dim))
    raise ValueError(f"unknown-function: {text!r} (use l0, zero, or phi:<weights>)")


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"invalid-seed: {text!r} is not an integer") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid-config: {path} is not JSON: {exc}") from None


def cmd_norm(args) -> int:
    from .norms import (PhiSpec, SourceNormSpec, best_norm_object,
                        k_support_norm, parse_config, top_k_norm)

    x = _parse_point(args.x)
    d = x.size
    config = parse_config(_load_config(args.config), dim=d)
    if args.kind == "topk":
        if args.q is None or args.k is None:
            raise ValueError("missing-argument: --kind topk needs --q and --k")
        value = top_k_norm(x, float(args.q), args.k)
    elif args.kind == "ksupport":
        if args.p is None or args.k is None:
            raise ValueError("missing-argument: --kind ksupport needs --p and --k")
        value = k_support_norm(x, float(args.p), args.k)
    else:  # "best", the last of --kind's choices
        if args.p is not None:
            source = SourceNormSpec.lp(float(args.p), d)
        elif config["source"] is not None:
            source = config["source"]
        else:
            raise ValueError("missing-argument: --kind best needs --p or a config source norm")
        if args.phi is not None:
            phi = _parse_phi(args.phi, d)
        elif config["phi"] is not None:
            phi = config["phi"]
        else:
            phi = PhiSpec.identity(d)
        value = best_norm_object(phi, source).value(x)
    print(_fmt(value))
    return 0


def cmd_envelope(args) -> int:
    import numpy as np

    from .envelope import ball_box_grid, tightest_convex_on_ball, write_surface_json
    from .numerics import write_sample_csv

    nu = _parse_nu(args.nu)
    dim = args.dim
    grid = ball_box_grid(dim, args.grid)
    env = tightest_convex_on_ball(_parse_function(args.f, dim), nu, grid)

    # The unit axes and the diagonal, scaled onto the sphere of nu.
    checkpoints = [e / nu.value(e) for e in np.vstack([np.eye(dim), np.ones((1, dim))])]
    for pt in checkpoints:
        coords = ",".join(_fmt(c) for c in pt)
        print(f"value near ({coords}): {_fmt(env.value_near(pt))}")
    if args.out:
        write_sample_csv(env, args.out)
        print(f"surface written to {args.out}")
    if args.json:
        write_surface_json(env, args.json, checkpoints)
        print(f"summary written to {args.json}")
    return 0


def _require(args, *flags: str) -> None:
    """Refuse an oracle run that lacks one of ``flags`` (argparse cannot
    tell, because each flag is optional for the other oracles)."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"missing-argument: --oracle {args.oracle} needs --{flag}")


def cmd_oracle(args) -> int:
    """Re-run a brute-force oracle so derived reference values are
    regenerable from the command line."""
    from . import oracle as orc
    from .conjugacy import conjugate_at_points
    from .envelope import _on_ball, ball_box_grid
    from .norms import SourceNormSpec, conj_exponent, dual_coordinate_k_norm
    from .numerics import FunctionSample, write_sample_csv

    seed = _parse_seed(args.seed)
    if args.oracle == "topk-enum":
        _require(args, "x", "k")
        x = _parse_point(args.x)
        q = float(args.q or "2")
        if not q >= 1.0:
            raise ValueError(f"invalid-q: --oracle topk-enum needs --q in [1, inf] "
                             f"(got {args.q})")
        src = SourceNormSpec.lp(conj_exponent(q), x.size)
        value = dual_coordinate_k_norm(x, src, args.k, method="enumerate")
        print(_fmt(value))
        return 0
    if args.oracle == "ksupport":
        _require(args, "x", "p", "k")
        x = _parse_point(args.x)
        orc._check_bruteforce_dim(x.size)
        dirs = orc.default_direction_set(x.size, args.count, seed=seed)
        print(_fmt(orc.k_support_bruteforce(x, float(args.p), args.k, dirs)))
        return 0
    if args.oracle == "support-phi":
        _require(args, "x", "p")
        x = _parse_point(args.x)
        src = SourceNormSpec.lp(float(args.p), x.size)
        print(_fmt(orc._phi_dual_support(x, _parse_phi(args.phi or "id", x.size), src)))
        return 0
    # "conjugate" or "envelope2d", the last of --oracle's choices.
    if args.oracle == "conjugate":
        _require(args, "at")
    at = _parse_point(args.at) if args.at else None
    grid = ball_box_grid(args.dim, args.grid)
    f = _parse_function(args.f, args.dim)
    sample = FunctionSample(grid, _on_ball(f, _parse_nu(args.nu), grid)[1])
    if args.oracle == "conjugate":
        print(_fmt(float(conjugate_at_points(sample, at[None, :])[0])))
        return 0
    # A checkpoint that has no nearest node is refused before the oracle runs.
    near = None if at is None else grid.nearest_index(at)
    ref = orc.convex_envelope_2d(sample)
    if near is not None:
        print(f"value near ({args.at}): {_fmt(float(ref.values[near]))}")
    if args.out:
        write_sample_csv(ref, args.out)
        print(f"surface written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verification import report_dict, run_suite

    if args.oracle:
        return cmd_oracle(args)
    if not args.suite:
        raise ValueError("missing-argument: verify needs --suite or --oracle")
    seed = _parse_seed(args.seed)
    results = run_suite(args.suite, seed)
    for r in results:
        print(r.line())
    report = report_dict(args.suite, seed, results)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0 if report["passed"] else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``capra`` parser, built once per process: parsing leaves no state
    in it, so every :func:`main` call of a process shares it."""
    parser = argparse.ArgumentParser(
        prog="capra",
        description="Capra conjugacy toolkit: sparsity norms, conjugates, "
                    "and convex lower envelopes on unit balls.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p_norm = sub.add_parser("norm", help="evaluate a norm at a point", **fmt)
    p_norm.add_argument("--kind", required=True, choices=("topk", "ksupport", "best"))
    p_norm.add_argument("--p", help="source/k-support exponent in [1, inf] (default from config)")
    p_norm.add_argument("--q", help="top-k exponent in [1, inf]")
    p_norm.add_argument("--k", type=int, help="number of active components")
    p_norm.add_argument("--phi", help="sparsity weights: 'id', '<c>*id', or comma list")
    p_norm.add_argument("--x", required=True, help="point, comma separated")
    p_norm.add_argument("--config", help="JSON config file; flags override it")
    p_norm.set_defaults(func=cmd_norm)

    p_env = sub.add_parser("envelope", help="tightest convex envelope surface on a ball", **fmt)
    p_env.add_argument("--f", default="l0", help="l0, zero, or phi:<weights>")
    p_env.add_argument("--nu", required=True, help="normalization, e.g. lp:2 or lp:inf")
    p_env.add_argument("--grid", type=int, default=201, help="nodes per axis (odd)")
    p_env.add_argument("--dim", type=int, default=2, help="ambient dimension")
    p_env.add_argument("--out", help="CSV output path")
    p_env.add_argument("--json", help="JSON summary output path")
    p_env.set_defaults(func=cmd_envelope)

    p_ver = sub.add_parser("verify", help="run verification suites or oracles", **fmt)
    p_ver.add_argument("--suite",
                       choices=("norms", "conjugacy", "envelope", "acceptance", "all"))
    p_ver.add_argument("--seed", default="0x5EED", help="rng seed (int or hex)")
    p_ver.add_argument("--report", help="JSON report output path")
    p_ver.add_argument("--oracle",
                       choices=("topk-enum", "ksupport", "support-phi",
                                "conjugate", "envelope2d"),
                       help="re-run a brute-force oracle instead of a suite")
    p_ver.add_argument("--x", help="point for point-wise oracles")
    p_ver.add_argument("--at", help="evaluation point for grid oracles")
    p_ver.add_argument("--p", help="source exponent for oracle norms")
    p_ver.add_argument("--q", help="restricted-norm exponent for topk-enum")
    p_ver.add_argument("--k", type=int, help="active-component count")
    p_ver.add_argument("--phi", help="sparsity weights for support-phi")
    p_ver.add_argument("--count", type=int, default=100_000,
                       help="direction count for sampled oracles")
    p_ver.add_argument("--f", default="l0", help="function for grid oracles")
    p_ver.add_argument("--nu", default="lp:2", help="normalization for grid oracles")
    p_ver.add_argument("--grid", type=int, default=101, help="grid nodes per axis")
    p_ver.add_argument("--dim", type=int, default=2, help="ambient dimension")
    p_ver.add_argument("--out", help="CSV output for envelope2d")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # A file that cannot be read or written is a domain error too.
        tag = "io-error: " if isinstance(exc, OSError) else ""
        print(f"error: {tag}{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
