"""Command-line surface: deterministic JSON in, deterministic JSON out.

Exit codes: 0 success, 1 domain error (e.g. a mapping that is not
cyclically monotone), 2 input error (bad document, bad references, bad
usage).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

from .fitzpatrick import (
    fitzpatrick,
    verify_inequality_chain,
    verify_theorem6A,
    verify_theorem6B,
)
from .core import AbstractConvexError, DEFAULT_EPS, IndexSubset
from .envelopes import ConstraintProblem, alpha, gamma, is_member
from .instance_io import (
    InstanceDocument,
    InstanceError,
    dumps,
    function_to_jsonable,
    graph_to_jsonable,
    parse_instance,
)
from .lipschitz import ExtensionProblem, extend_max, extend_min
from .monotone import is_cyclically_monotone, is_n_monotone
from .rockafellar import NotCyclicallyMonotoneError, rockafellar
from .transforms import c_subdifferential, c_transform, c_transform_rev, c_convexify

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process (parsing never
    changes it)."""
    parser = argparse.ArgumentParser(
        prog="abconvex",
        description="Finite-instance computations of abstract convex analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ["transform", "convexify", "subdiff", "check-monotone",
                "rockafellar", "alpha", "gamma", "member", "lip-extend",
                "fitzpatrick", "verify"]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--function", default=None)
        p.add_argument("--mapping", default=None)
        p.add_argument("--subset", default=None)
        p.add_argument("--site-function", dest="site_function", default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--min", action="store_true")
        p.add_argument("--max", action="store_true")
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)
    return parser


def _require(value, flag: str):
    if value is None:
        raise InstanceError(f"this command requires {flag}")
    return value


def _witness_pairs(m, witness):
    return [[m.source.labels[x], m.target.labels[y]] for x, y in witness]


def _site_problem(doc: InstanceDocument, args, eps: float) -> ConstraintProblem:
    m = doc.mapping(_require(args.mapping, "--mapping"))
    s = doc.subset(_require(args.subset, "--subset"))
    f = doc.function(_require(args.site_function, "--site-function"))
    return ConstraintProblem(doc.coupling, m, f, s, eps)


def _run(args) -> dict:
    with open(args.instance, "rb") as fh:
        doc = parse_instance(fh.read())
    eps = args.epsilon
    c = doc.coupling
    cmd = args.command

    if cmd == "transform":
        f = doc.function(_require(args.function, "--function"))
        if f.index.labels == c.domain.labels:
            out = c_transform(f, c)
        elif f.index.labels == c.codomain.labels:
            out = c_transform_rev(f, c)
        else:
            raise InstanceError("function is indexed by neither coupling side")
        return {"command": cmd, "result": function_to_jsonable(out)}

    if cmd == "convexify":
        f = doc.function(_require(args.function, "--function"))
        return {"command": cmd,
                "result": function_to_jsonable(c_convexify(f, c))}

    if cmd == "subdiff":
        f = doc.function(_require(args.function, "--function"))
        sub = c_subdifferential(f, c, eps)
        return {"command": cmd, "result": graph_to_jsonable(sub.mapping)}

    if cmd == "check-monotone":
        m = doc.mapping(_require(args.mapping, "--mapping"))
        if args.order is not None:
            verdict = is_n_monotone(m, c, args.order, eps)
        else:
            verdict = is_cyclically_monotone(m, c, eps)
        out = {"command": cmd, "monotone": bool(verdict)}
        if not verdict:
            out["witness"] = _witness_pairs(m, verdict.witness)
        return out

    if cmd == "rockafellar":
        m = doc.mapping(_require(args.mapping, "--mapping"))
        anchor = doc.subset(_require(args.subset, "--subset"))
        if len(anchor.members) != 1:
            raise InstanceError("--subset must name a single anchor point")
        r = rockafellar(m, c, anchor.members[0], eps)
        return {"command": cmd, "result": function_to_jsonable(r)}

    if cmd == "alpha":
        problem = _site_problem(doc, args, eps)
        return {"command": cmd, "result": function_to_jsonable(alpha(problem))}

    if cmd == "gamma":
        problem = _site_problem(doc, args, eps)
        return {"command": cmd, "result": function_to_jsonable(gamma(problem))}

    if cmd == "member":
        problem = _site_problem(doc, args, eps)
        h = doc.function(_require(args.function, "--function"))
        return {"command": cmd, "member": is_member(h, problem)}

    if cmd == "lip-extend":
        if doc.metric is None:
            raise InstanceError("lip-extend requires a metric coupling block")
        if args.min == args.max:
            raise InstanceError("choose exactly one of --min / --max")
        m = doc.mapping(_require(args.mapping, "--mapping"))
        s = doc.subset(_require(args.subset, "--subset"))
        f = doc.function(_require(args.site_function, "--site-function"))
        problem = ExtensionProblem(doc.metric, m, f, s, eps)
        out = extend_min(problem) if args.min else extend_max(problem)
        return {"command": cmd,
                "which": "min" if args.min else "max",
                "result": function_to_jsonable(out)}

    if cmd == "fitzpatrick":
        m = doc.mapping(_require(args.mapping, "--mapping"))
        return {"command": cmd,
                "result": function_to_jsonable(fitzpatrick(m, c))}

    if cmd == "verify":
        m = doc.mapping(_require(args.mapping, "--mapping"))
        report_a = verify_theorem6A(m, c, eps)
        out = {"command": cmd,
               "theorem_a": {**asdict(report_a), "agree": report_a.agree}}
        if report_a.t_monotone:
            report_b = verify_theorem6B(m, c, eps, seed=args.seed)
            out["theorem_b"] = asdict(report_b)
        if doc.metric is not None and doc.negate:
            try:
                chain = verify_inequality_chain(m, doc.metric, eps=eps)
                out["inequality_chain"] = asdict(chain)
            except AbstractConvexError as exc:
                out["inequality_chain"] = {"skipped": str(exc)}
        return out

    raise InstanceError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = _run(args)
        text = dumps(result)
        status = EXIT_OK
    except NotCyclicallyMonotoneError as exc:
        text = dumps({"error": "not-cyclically-monotone",
                      "message": str(exc),
                      "witness": [list(p) for p in exc.witness]})
        status = EXIT_DOMAIN
    except InstanceError as exc:
        text = dumps({"error": "input", "message": str(exc)})
        status = EXIT_INPUT
    except (OSError, ValueError) as exc:
        text = dumps({"error": "input", "message": str(exc)})
        status = EXIT_INPUT
    except AbstractConvexError as exc:
        text = dumps({"error": "domain", "message": str(exc)})
        status = EXIT_DOMAIN
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
