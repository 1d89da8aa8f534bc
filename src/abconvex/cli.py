"""Command-line surface: deterministic JSON in, deterministic JSON out.

Exit codes: 0 success, 1 domain error (e.g. a mapping that is not
cyclically monotone), 2 input error (bad document, bad references, bad
usage, an ``--output`` path that cannot be written).

``--output FILE`` receives the bytes stdout would.  An existing file is
rewritten in place and then cut to the written length, so its inode, mode
and links survive and closing it starts no writeback, which a truncation
to zero does on ext4, XFS and btrfs.  The write is not atomic: a crash
mid-write can leave old and new bytes mixed, where a truncating rewrite
could leave an empty file.  A path that cannot be written is an input
error, reported on stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from dataclasses import asdict

from .fitzpatrick import (
    _inequality_chain,
    _Lifted,
    _theorem6A,
    _theorem6B,
    fitzpatrick,
)
from .core import AbstractConvexError, DEFAULT_EPS, MultiMapping
from .envelopes import ConstraintProblem, alpha, gamma, is_member
from .instance_io import (
    InstanceDocument,
    InstanceError,
    dumps,
    function_to_jsonable,
    graph_to_jsonable,
    label_pairs,
    parse_instance,
)
from .lipschitz import ExtensionProblem, extend_max, extend_min
from .monotone import is_cyclically_monotone, is_n_monotone
from .rockafellar import NotCyclicallyMonotoneError, rockafellar
from .transforms import c_subdifferential, c_transform, c_transform_rev, c_convexify

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (a bad or missing command, option or value) as
    an input error, so it prints the JSON document and exits 2 like every
    other input error, instead of printing usage to stderr."""

    def error(self, message):
        raise InstanceError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process (parsing never
    changes it)."""
    parser = _Parser(
        prog="abconvex",
        description="Finite-instance computations of abstract convex analysis.")
    parser.add_argument("command", choices=[
        "transform", "convexify", "subdiff", "check-monotone", "rockafellar",
        "alpha", "gamma", "member", "lip-extend", "fitzpatrick", "verify"])
    parser.add_argument("--instance", required=True)
    parser.add_argument("--function", default=None)
    parser.add_argument("--mapping", default=None)
    parser.add_argument("--subset", default=None)
    parser.add_argument("--site-function", dest="site_function", default=None)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--min", action="store_true")
    parser.add_argument("--max", action="store_true")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None)
    return parser


def _require(value, flag: str):
    if value is None:
        raise InstanceError(f"this command requires {flag}")
    return value


def _mapping(doc: InstanceDocument, args) -> MultiMapping:
    """``--mapping``, which must run from the coupling's domain to codomain."""
    name = _require(args.mapping, "--mapping")
    m, c = doc.mapping(name), doc.coupling
    if (m.source, m.target) != (c.domain, c.codomain):  # by their labels
        raise InstanceError(f"mapping {name!r} does not run from the "
                            "coupling's domain to its codomain")
    return m


def _site_args(doc: InstanceDocument, args):
    """(mapping, site function, sites), the order the problem types take;
    all three live on the coupling's domain."""
    m = _mapping(doc, args)
    domain = doc.coupling.domain.labels
    name = _require(args.subset, "--subset")
    s = doc.subset(name)
    if s.parent.labels != domain:
        raise InstanceError(f"subset {name!r} does not lie in the coupling's "
                            "domain")
    name = _require(args.site_function, "--site-function")
    f = doc.function(name)
    if f.index.labels != domain:
        raise InstanceError(f"site function {name!r} is not indexed by the "
                            "coupling's domain")
    return m, f, s


def _run(args) -> dict:
    eps = args.epsilon
    if not math.isfinite(eps):
        raise InstanceError(f"--epsilon must be a finite number, not {eps!r}")
    with open(args.instance, "rb") as fh:
        doc = parse_instance(fh.read())
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
        m = _mapping(doc, args)
        if args.order is not None:
            verdict = is_n_monotone(m, c, args.order, eps)
        else:
            verdict = is_cyclically_monotone(m, c, eps)
        out = {"command": cmd, "monotone": bool(verdict)}
        if not verdict:
            out["witness"] = label_pairs(m, verdict.witness)
        return out

    if cmd == "rockafellar":
        m = _mapping(doc, args)
        anchor = doc.subset(_require(args.subset, "--subset"))
        if len(anchor.members) != 1:
            raise InstanceError("--subset must name a single anchor point")
        if anchor.parent.labels != c.domain.labels:
            raise InstanceError("--subset must lie in the coupling's domain")
        r = rockafellar(m, c, anchor.members[0], eps)
        return {"command": cmd, "result": function_to_jsonable(r)}

    if cmd in ("alpha", "gamma"):
        problem = ConstraintProblem(c, *_site_args(doc, args), eps)
        envelope = alpha if cmd == "alpha" else gamma
        return {"command": cmd,
                "result": function_to_jsonable(envelope(problem))}

    if cmd == "member":
        problem = ConstraintProblem(c, *_site_args(doc, args), eps)
        h = doc.function(_require(args.function, "--function"))
        return {"command": cmd, "member": is_member(h, problem)}

    if cmd == "lip-extend":
        if doc.metric is None:
            raise InstanceError("lip-extend requires a metric coupling block")
        if args.min == args.max:
            raise InstanceError("choose exactly one of --min / --max")
        problem = ExtensionProblem(doc.metric, *_site_args(doc, args), eps)
        out = extend_min(problem) if args.min else extend_max(problem)
        return {"command": cmd,
                "which": "min" if args.min else "max",
                "result": function_to_jsonable(out)}

    if cmd == "fitzpatrick":
        m = _mapping(doc, args)
        return {"command": cmd,
                "result": function_to_jsonable(fitzpatrick(m, c))}

    # verify, the last command the parser accepts
    m = _mapping(doc, args).require_proper()
    # one context: each lifted quantity is computed once per request
    lifted = _Lifted(m, c, eps)
    report_a = _theorem6A(lifted)
    out = {"command": cmd,
           "theorem_a": {**asdict(report_a), "agree": report_a.agree}}
    if report_a.t_monotone:
        out["theorem_b"] = asdict(_theorem6B(lifted, seed=args.seed))
    if doc.metric is not None and doc.negate:
        try:
            # c is -d here, the coupling the chain is stated for
            chain = _inequality_chain(lifted, doc.metric)
            out["inequality_chain"] = asdict(chain)
        except AbstractConvexError as exc:
            out["inequality_chain"] = {"skipped": str(exc)}
    return out


def _write_in_place(path: str, text: str) -> None:
    """Write ``text`` over ``path`` from its start, then cut a regular
    file to the written length (``/dev/null`` refuses the cut, and FIFOs
    and ttys cannot seek)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def main(argv=None) -> int:
    args = None  # a usage error leaves no --output, so it goes to stdout
    try:
        args = _build_parser().parse_args(argv)
        result = _run(args)
        text = dumps(result)
        status = EXIT_OK
    except NotCyclicallyMonotoneError as exc:
        text = dumps({"error": "not-cyclically-monotone",
                      "message": str(exc),
                      "witness": label_pairs(exc.mapping, exc.witness)})
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
        try:
            _write_in_place(args.output, text)
            return status
        except OSError as exc:
            text = dumps({"error": "input",
                          "message": f"cannot write --output: {exc}"})
            status = EXIT_INPUT
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
