"""The benchmark's workloads: seeded instance families, the fixed sequence of
CLI commands each job runs on a family, and the independent output checks.

A family is generated by ``abconvex.sampling`` from a ``random.Random``
and written with ``abconvex.instance_io.emit_document``; the CLI only ever
sees those documents.  Each check recomputes the expected output with the
numpy routes in ``reference`` and returns a list of problems (empty when
every output of the job is right).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from abconvex.core import IndexSubset, MultiMapping
from abconvex.instance_io import InstanceDocument, emit_document
from abconvex.lipschitz import as_coupling, identity_mapping, identity_on
from abconvex.monotone import ENUMERATION_BUDGET, is_n_monotone
from abconvex.sampling import (
    inject_positive_two_cycle,
    random_c_convex_function,
    random_coupling,
    random_cyclically_monotone_mapping,
    random_lipschitz_function,
    random_metric,
    random_proper_function,
)
from abconvex.transforms import c_subdifferential

#: The CLI's default epsilon; every job runs with it.
EPS = 1e-9
#: Rejection-sampling guard: a family whose controlled size is not hit in
#: this many draws means the size targets are infeasible.
MAX_DRAWS = 500


@dataclass(frozen=True)
class Step:
    """One CLI request: ``<command> --instance <document> <args>``."""

    name: str
    command: str
    document: str
    args: tuple[str, ...] = ()
    codes: tuple[int, ...] = (0,)   # accepted exit codes


@dataclass
class Family:
    documents: dict[str, str]       # document name -> JSON text
    data: dict                      # numpy arrays the check needs
    steps: list[Step]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[..., Family]
    check: Callable[[dict, dict], list[str]]
    sizes: dict                     # keyword arguments of ``make``
    pool: int                       # families per run, used round-robin


# ---------------------------------------------------------------- helpers

def _arr(values) -> np.ndarray:
    return np.array(values, dtype=float)


def _pairs(m: MultiMapping):
    return (np.array([x for x, _ in m.graph]), np.array([y for _, y in m.graph]))


def _vec(out: dict) -> np.ndarray:
    return np.array([np.inf if v == "inf" else float(v)
                     for v in out["result"]["values"]])


def _coupling_doc(c, functions=None, mappings=None, subsets=None) -> str:
    return emit_document(InstanceDocument(
        "1", {"X": c.domain, "Y": c.codomain}, c, coupling_names=("X", "Y"),
        functions=functions or {}, mappings=mappings or {},
        subsets=subsets or {}))


def _metric_doc(metric, functions=None, mappings=None, subsets=None) -> str:
    return emit_document(InstanceDocument(
        "1", {"P": metric.points}, as_coupling(metric), metric=metric,
        negate=True, coupling_names=("P", "P"), functions=functions or {},
        mappings=mappings or {}, subsets=subsets or {}))


def _extension_family(rng: random.Random, points: int):
    """A metric, a 1-Lipschitz f and the identity mapping on a random half S,
    with sites S (the full-domain case of the extension problem)."""
    metric = random_metric(rng, points)
    f = random_lipschitz_function(rng, metric)
    sites = IndexSubset(metric.points,
                        tuple(rng.sample(range(points), points // 2)))
    doc = _metric_doc(metric, {"f": f}, {"I_S": identity_on(sites)},
                      {"S": sites})
    return doc, {"d": _arr(metric.dist), "lf": _arr(f.values),
                 "lsites": np.array(sites.members)}


def _labels_to_pairs(pairs, xlabels, ylabels):
    xi = {lab: i for i, lab in enumerate(xlabels)}
    yi = {lab: i for i, lab in enumerate(ylabels)}
    return [(xi[x], yi[y]) for x, y in pairs]


class _Checker:
    """Collects problems for one job's outputs."""

    def __init__(self, outputs: dict):
        self.outputs = outputs
        self.problems: list[str] = []

    def out(self, step: str) -> dict:
        return self.outputs[step][1]

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------- envelope

def make_envelope(rng: random.Random, n: int, image: int, points: int) -> Family:
    """Random n x n coupling; M is the full subdifferential of a random
    c-convex anchor f and the sites are a random half of dom(M), drawn until
    M(sites) has ``image`` points, which fixes the dual route's site count."""
    for _ in range(MAX_DRAWS):
        c = random_coupling(rng, n, n)
        f = random_c_convex_function(rng, c)
        m = c_subdifferential(f, c).mapping
        dom = list(m.dom)
        for _ in range(MAX_DRAWS // 10):
            sites = sorted(rng.sample(dom, len(dom) // 2))
            if len(m.of_set(sites)) == image:
                break
        else:
            continue
        break
    else:
        raise ValueError(f"no envelope family with |M(S)| = {image}")
    s = IndexSubset(c.domain, tuple(sites))
    anchor = IndexSubset(c.domain, (sites[0],))
    lip_doc, lip = _extension_family(rng, points)
    documents = {
        "envelope": _coupling_doc(c, {"f": f}, {"M": m}, {"S": s, "A": anchor}),
        "metric": lip_doc,
    }
    data = {"c": _arr(c.values), "f": _arr(f.values), "pairs": _pairs(m),
            "sites": np.array(sites), "anchor": sites[0], **lip}
    site_args = ("--mapping", "M", "--subset", "S", "--site-function", "f")
    steps = [
        Step("check", "check-monotone", "envelope", ("--mapping", "M")),
        Step("rockafellar", "rockafellar", "envelope",
             ("--mapping", "M", "--subset", "A")),
        Step("alpha", "alpha", "envelope", site_args),
        Step("gamma", "gamma", "envelope", site_args),
        Step("lip_min", "lip-extend", "metric",
             ("--mapping", "I_S", "--subset", "S", "--site-function", "f",
              "--min")),
    ]
    return Family(documents, data, steps)


def check_envelope(data: dict, outputs: dict) -> list[str]:
    k = _Checker(outputs)
    c, f, pairs, sites = data["c"], data["f"], data["pairs"], data["sites"]
    k.expect(k.out("check").get("monotone") is True, "check-monotone: verdict")
    k.expect(not ref.has_positive_cycle(ref.gain_matrix(c, pairs)),
             "check-monotone: reference closure finds a positive cycle")

    r = _vec(k.out("rockafellar"))
    k.expect(abs(r[data["anchor"]]) <= ref.TOL, "rockafellar: R(s) != 0")
    k.expect(ref.is_antiderivative(c, r, pairs),
             "rockafellar: not an antiderivative")

    a, g = _vec(k.out("alpha")), _vec(k.out("gamma"))
    for name, h in (("alpha", a), ("gamma", g)):
        k.problems += [f"{name}: {p}"
                       for p in ref.member_problems(c, h, pairs, sites, f)]
    k.expect(bool(np.all(a <= f + ref.TOL) and np.all(f <= g + ref.TOL)),
             "envelopes: alpha <= anchor <= gamma fails")

    d, lf, ls = data["d"], data["lf"], data["lsites"]
    k.expect(ref.close(_vec(k.out("lip_min")),
                       (lf[ls][None, :] - d[:, ls]).max(axis=1)),
             "lip-extend --min: differs from max_s f(s) - d(x, s)")
    return k.problems


# ---------------------------------------------------------------- dense

def make_dense(rng: random.Random, n: int, points: int) -> Family:
    """Full-domain family on a random n x n coupling: M is the full
    subdifferential of a c-convex anchor f, the sites are dom(M), and h is a
    random proper function for the plain transforms."""
    c = random_coupling(rng, n, n)
    h = random_proper_function(rng, c.domain)
    f = random_c_convex_function(rng, c)
    m = c_subdifferential(f, c).mapping
    if len(m.graph) ** 2 > ENUMERATION_BUDGET:
        raise ValueError("order-2 check would leave the enumeration route")
    dom = IndexSubset(c.domain, m.dom)
    lip_doc, lip = _extension_family(rng, points)
    documents = {
        "dense": _coupling_doc(c, {"h": h, "f": f}, {"M": m}, {"D": dom}),
        "metric": lip_doc,
    }
    data = {"c": _arr(c.values), "h": _arr(h.values), "f": _arr(f.values),
            "pairs": _pairs(m), "sites": np.array(dom.members),
            "labels": (c.domain.labels, c.codomain.labels), **lip}
    site_args = ("--mapping", "M", "--subset", "D", "--site-function", "f")
    steps = [
        Step("transform", "transform", "dense", ("--function", "h")),
        Step("convexify", "convexify", "dense", ("--function", "h")),
        Step("subdiff", "subdiff", "dense", ("--function", "h")),
        Step("gamma", "gamma", "dense", site_args),
        Step("member", "member", "dense", site_args + ("--function", "f")),
        Step("check2", "check-monotone", "dense",
             ("--mapping", "M", "--order", "2")),
        Step("lip_max", "lip-extend", "metric",
             ("--mapping", "I_S", "--subset", "S", "--site-function", "f",
              "--max")),
    ]
    return Family(documents, data, steps)


def check_dense(data: dict, outputs: dict) -> list[str]:
    k = _Checker(outputs)
    c, h, f, pairs, sites = (data["c"], data["h"], data["f"], data["pairs"],
                             data["sites"])
    k.expect(ref.close(_vec(k.out("transform")), ref.transform(c, h)),
             "transform: differs from the reference")
    k.expect(ref.close(_vec(k.out("convexify")), ref.convexify(c, h)),
             "convexify: differs from the reference")
    got = np.zeros(c.shape, dtype=bool)
    for x, y in _labels_to_pairs(k.out("subdiff")["result"], *data["labels"]):
        got[x, y] = True
    k.expect(np.array_equal(got, ref.subdiff(c, h, EPS)),
             "subdiff: graph differs from the reference")

    g = _vec(k.out("gamma"))
    restricted = np.full_like(f, np.inf)
    restricted[sites] = f[sites]
    k.expect(ref.close(g, ref.convexify(c, restricted)),
             "gamma: differs from the convexified restricted anchor")
    k.problems += [f"gamma: {p}"
                   for p in ref.member_problems(c, g, pairs, sites, f)]
    expected_member = not ref.member_problems(c, f, pairs, sites, f)
    k.expect(k.out("member").get("member") is expected_member,
             "member: verdict differs from the reference")
    k.expect(k.out("check2").get("monotone") is True
             and ref.two_cycle_max(c, pairs) <= ref.TOL,
             "check-monotone --order 2: verdict")

    d, lf, ls = data["d"], data["lf"], data["lsites"]
    k.expect(ref.close(_vec(k.out("lip_max")),
                       (lf[ls][None, :] + d[:, ls]).min(axis=1)),
             "lip-extend --max: differs from min_s f(s) + d(x, s)")
    return k.problems


# ---------------------------------------------------------------- lifted

def greedy_maximal(rng: random.Random, m: MultiMapping, c) -> MultiMapping:
    """Extend a 2-monotone mapping pair by pair, in random order, until no
    absent pair keeps it 2-monotone (finite maximality)."""
    candidates = [(x, y) for x in range(c.domain.size)
                  for y in range(c.codomain.size)]
    rng.shuffle(candidates)
    for x, y in candidates:
        if (x, y) not in m:
            grown = m.with_pair(x, y)
            if is_n_monotone(grown, c, 2, EPS):
                m = grown
    return m


def make_lifted(rng: random.Random, n: int, size: int, metric_size: int) -> Family:
    """A finitely maximal 2-monotone T with |G(T)| = ``size`` on a random
    n x n coupling, a maximal -d-monotone T of ``metric_size`` pairs on an
    n-point metric, and a copy of the first with a positive 2-cycle injected."""
    for _ in range(MAX_DRAWS):
        c = random_coupling(rng, n, n)
        t = greedy_maximal(rng, random_cyclically_monotone_mapping(rng, c), c)
        if len(t.graph) == size:
            break
    else:
        raise ValueError(f"no maximal T with {size} pairs")
    for _ in range(MAX_DRAWS):
        metric = random_metric(rng, n)
        tm = greedy_maximal(rng, identity_mapping(metric), as_coupling(metric))
        if len(tm.graph) == metric_size:
            break
    else:
        raise ValueError(f"no maximal -d-monotone T with {metric_size} pairs")
    bad, cbad = inject_positive_two_cycle(rng, t, c)
    documents = {
        "lifted": _coupling_doc(c, mappings={"T": t}),
        "metric": _metric_doc(metric, mappings={"T": tm}),
        "injected": _coupling_doc(cbad, mappings={"T": bad}),
    }
    d = _arr(metric.dist)
    data = {"c": _arr(c.values), "pairs": _pairs(t), "d": d,
            "mpairs": _pairs(tm), "cbad": _arr(cbad.values),
            "bad": _pairs(bad),
            "labels": (c.domain.labels, c.codomain.labels)}
    t_arg = ("--mapping", "T")
    steps = [
        Step("fitzpatrick", "fitzpatrick", "lifted", t_arg),
        Step("verify", "verify", "lifted", t_arg),
        Step("verify_metric", "verify", "metric", t_arg),
        Step("verify_injected", "verify", "injected", t_arg, codes=(0, 1)),
        Step("check_injected", "check-monotone", "injected",
             t_arg + ("--order", "2"), codes=(0, 1)),
    ]
    return Family(documents, data, steps)


def _check_maximal_report(k: _Checker, step: str, c, pairs) -> None:
    out = k.out(step)
    monotone = ref.two_cycle_max(c, pairs) <= ref.TOL
    a = out["theorem_a"]
    k.expect(all(a[key] is monotone for key in (
        "t_monotone", "delta_monotone", "delta_cyclically_monotone",
        "anchor_is_antiderivative")) and a["agree"] is True,
        f"{step}: theorem A readings")
    b = out.get("theorem_b", {})
    maximal = ref.is_maximal_monotone(c, pairs)
    k.expect(b.get("equal") is True and b.get("max_abs_diff", 1.0) <= ref.TOL,
             f"{step}: theorem B alpha != Fitzpatrick")
    k.expect(b.get("maximality_checked") is maximal
             and b.get("sampled_members") == (10 if maximal else 0)
             and b.get("family_inclusion_falsified") is False,
             f"{step}: theorem B member sampling")


def _witness_violates(c, witness, labels, graph) -> bool:
    if not witness:
        return False
    selection = _labels_to_pairs(witness, *labels)
    return (all(p in graph for p in selection)
            and ref.chain_gain(c, selection) > ref.TOL)


def check_lifted(data: dict, outputs: dict) -> list[str]:
    k = _Checker(outputs)
    c, pairs = data["c"], data["pairs"]
    k.expect(ref.close(_vec(k.out("fitzpatrick")),
                       ref.fitzpatrick(c, pairs).ravel()),
             "fitzpatrick: differs from the closed form")
    _check_maximal_report(k, "verify", c, pairs)

    d, mpairs = data["d"], data["mpairs"]
    _check_maximal_report(k, "verify_metric", -d, mpairs)
    chain = k.out("verify_metric").get("inequality_chain", {})
    worst = ref.inequality_chain_violation(d, ref.fitzpatrick(-d, mpairs))
    k.expect(chain.get("holds") is (worst <= ref.TOL)
             and abs(chain.get("max_violation", np.inf) - worst) <= ref.TOL,
             "verify (metric): inequality chain")

    cbad, labels, (xs, ys) = data["cbad"], data["labels"], data["bad"]
    bad = set(zip(xs.tolist(), ys.tolist()))
    k.expect(ref.two_cycle_max(cbad, (xs, ys)) > ref.TOL,
             "injected copy is 2-monotone by the reference")
    code, out = k.outputs["verify_injected"]
    if code == 0:
        a = out["theorem_a"]
        k.expect(not any(a[key] for key in (
            "t_monotone", "delta_monotone", "delta_cyclically_monotone",
            "anchor_is_antiderivative")) and a["agree"] is True
            and (a["violation_identity_value"] or 0.0) < 0.0
            and "theorem_b" not in out,
            "verify (injected): expected a failed verdict with its identity value")
    else:
        k.expect(_witness_violates(cbad, out.get("witness"), labels, bad),
                 "verify (injected): error without a violating witness")
    code, out = k.outputs["check_injected"]
    k.expect((code == 1 or out.get("monotone") is False)
             and _witness_violates(cbad, out.get("witness"), labels, bad),
             "check-monotone (injected): no violating witness")
    return k.problems


WORKLOADS = {
    "envelope": Workload("envelope", make_envelope, check_envelope,
                         {"n": 20, "image": 12, "points": 24}, pool=16),
    "dense": Workload("dense", make_dense, check_dense,
                      {"n": 160, "points": 80}, pool=4),
    "lifted": Workload("lifted", make_lifted, check_lifted,
                       {"n": 7, "size": 15, "metric_size": 16}, pool=8),
}
