"""Command-line surface: deterministic JSON in, deterministic JSON out.

Exit codes: 0 success, 1 domain error (e.g. a mapping that is not
cyclically monotone), 2 input error (bad document, bad references, a
named item off its side of the coupling, bad usage, an ``--output`` path
that cannot be written).  Every named item passes one side check
(``_item``): a mapping runs from the coupling's domain to its codomain,
and a subset or function lies in its domain; only ``transform`` reads a
function on either side.

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
from dataclasses import fields

from .fitzpatrick import Lifted, fitzpatrick
from .core import AbstractConvexError, DEFAULT_EPS, indexed_by
from .envelopes import ConstraintProblem, alpha, gamma, is_member
from .instance_io import (
    InstanceDocument,
    InstanceError,
    dumps,
    function_to_jsonable,
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


def _item(doc: InstanceDocument, value, flag: str):
    """The document item that option ``flag`` names, on its side of the
    coupling: a ``--mapping`` runs from its domain to its codomain, and a
    ``--subset``, ``--site-function`` or ``--function`` lies in its
    domain.  An item off its side is an input error that names it."""
    name = _require(value, flag)
    if flag == "--mapping":
        item = doc.mapping(name)
        if item.runs_on(doc.coupling):
            return item
        raise InstanceError(f"mapping {name!r} does not run from the "
                            "coupling's domain to its codomain")
    if flag == "--subset":
        item, fault = doc.subset(name), "does not lie in"
    else:
        item, fault = doc.function(name), "is not indexed by"
    if not indexed_by(item, doc.coupling.domain):
        kind = flag[2:].replace("-", " ")  # subset, function, site function
        raise InstanceError(f"{kind} {name!r} {fault} the coupling's domain")
    return item


def _site_args(doc: InstanceDocument, args):
    """(mapping, site function, sites), the order the problem types take,
    read in the order mapping, sites, site function."""
    m = _item(doc, args.mapping, "--mapping")
    s = _item(doc, args.subset, "--subset")
    return m, _item(doc, args.site_function, "--site-function"), s


def _fields(report) -> dict:
    """A report's fields by name, in order: ``asdict`` without its deep
    copy, which a report of bools, floats and None does not need."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _run(args) -> dict:
    eps = args.epsilon
    if not math.isfinite(eps):
        raise InstanceError(f"--epsilon must be a finite number, not {eps!r}")
    with open(args.instance, "rb") as fh:
        doc = parse_instance(fh.read())
    c = doc.coupling
    cmd = args.command

    if cmd == "transform":
        name = _require(args.function, "--function")
        f = doc.function(name)
        if indexed_by(f, c.domain):
            transform = c_transform
        elif indexed_by(f, c.codomain):
            transform = c_transform_rev
        else:
            raise InstanceError(
                f"function {name!r} is indexed by neither coupling side")
        out = transform(f.require_proper("transform input"), c)
        return {"command": cmd, "result": function_to_jsonable(out)}

    if cmd == "convexify":
        f = _item(doc, args.function, "--function")
        return {"command": cmd,
                "result": function_to_jsonable(c_convexify(f, c))}

    if cmd == "subdiff":
        f = _item(doc, args.function, "--function")
        m = c_subdifferential(f, c, eps).mapping
        return {"command": cmd, "result": label_pairs(m, m.graph)}

    if cmd == "check-monotone":
        m = _item(doc, args.mapping, "--mapping")
        if args.order is not None:
            verdict = is_n_monotone(m, c, args.order, eps)
        else:
            verdict = is_cyclically_monotone(m, c, eps)
        out = {"command": cmd, "monotone": bool(verdict)}
        if not verdict:
            out["witness"] = label_pairs(m, verdict.witness)
        return out

    if cmd == "rockafellar":
        m = _item(doc, args.mapping, "--mapping")
        anchor = _item(doc, args.subset, "--subset")
        if len(anchor.members) != 1:
            raise InstanceError("--subset must name a single anchor point")
        r = rockafellar(m, c, anchor.members[0], eps)
        return {"command": cmd, "result": function_to_jsonable(r)}

    if cmd in ("alpha", "gamma"):
        problem = ConstraintProblem(c, *_site_args(doc, args), eps)
        envelope = alpha if cmd == "alpha" else gamma
        return {"command": cmd,
                "result": function_to_jsonable(envelope(problem))}

    if cmd == "member":
        problem = ConstraintProblem(c, *_site_args(doc, args), eps)
        h = _item(doc, args.function, "--function")
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
        m = _item(doc, args.mapping, "--mapping")
        return {"command": cmd,
                "result": function_to_jsonable(fitzpatrick(m, c))}

    # verify, the last command the parser accepts
    # one context: each lifted quantity is computed once per request
    lifted = Lifted(_item(doc, args.mapping, "--mapping"), c, eps)
    report_a = lifted.theorem6A()
    out = {"command": cmd,
           "theorem_a": {**_fields(report_a), "agree": report_a.agree}}
    if report_a.t_monotone:
        out["theorem_b"] = _fields(lifted.theorem6B(seed=args.seed))
    if doc.metric is not None and doc.negate:
        try:
            # c is -d here, the coupling the chain is stated for
            out["inequality_chain"] = _fields(lifted.inequality_chain())
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
    except (InstanceError, OSError, ValueError) as exc:
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
