"""Command-line front end binding all modules to file-based workflows.

Every subcommand emits a deterministic run report (text or JSON, checks
sorted by name) and exits 0 exactly when all checks pass at the requested
tolerance.  Random suites are seeded through --seed.

The argument parser is built once per process, on the first call of
``main``, and reused by later calls; parsing keeps no state between calls,
so in-process callers such as a benchmark loop pay for it once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import cech, fatgraph, hitchin, integrable
from .grassmann import GrassmannElement
from .reports import CheckReport
from .supergroup import group_law_suite

SELFTEST_GENERATORS = 8


@dataclass
class RunReport:
    """Per-command outcome: named residual checks plus info fields."""

    command: str
    checks: CheckReport = field(default_factory=CheckReport)

    @property
    def exit_status(self) -> int:
        return 0 if self.checks.ok else 1

    def to_dict(self) -> dict:
        body = self.checks.to_dict()
        body["command"] = self.command
        body["exit_status"] = self.exit_status
        return body

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        lines = ["== %s ==" % self.command, self.checks.format_text(),
                 "status: %s" % ("pass" if self.exit_status == 0 else "FAIL")]
        return "\n".join(line for line in lines if line)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise SystemExit("cannot read %s: %s" % (path, err))
    except json.JSONDecodeError as err:
        raise SystemExit("cannot parse %s: line %d column %d: %s"
                         % (path, err.lineno, err.colno, err.msg))


def _parse(path: str, parse):
    """parse(data) on the JSON in path; a missing or wrongly typed field is a
    usage error (exit 2)."""
    data = _load_json(path)
    try:
        return parse(data)
    except KeyError as err:
        raise ValueError("%s: missing field %s" % (path, err)) from None
    except TypeError as err:
        raise ValueError("%s: wrongly typed field: %s" % (path, err)) from None


# -- group-selftest -------------------------------------------------------------

def cmd_group_selftest(args) -> RunReport:
    return RunReport("group-selftest", group_law_suite(
        np.random.default_rng(args.seed), SELFTEST_GENERATORS, args.count, args.tol,
        args.corrupt))


# -- cech-verify -----------------------------------------------------------------

def cmd_cech_verify(args) -> RunReport:
    report = RunReport("cech-verify")
    nerve = _parse(args.nerve, cech.nerve_from_dict)
    data = _parse(args.data, lambda d: cech.TransitionData.from_dict(nerve, d))
    mode = args.mode
    if mode == "auto":
        mode = "sl" if data.is_sl() else "gl"
    if mode == "sl":
        report.checks.extend(cech.check_sl_cocycle(data, tol=args.tol))
    else:
        report.checks.extend(cech.check_gl_cocycle(data, tol=args.tol))
    if report.checks.ok and nerve.simplices[2]:
        g = cech.two_cocycle_g(data, tol=args.tol)
        if nerve.simplices[3]:
            report.checks.add("two_cocycle_closed", g.coboundary().max_abs(), args.tol)
        try:
            f = cech.solve_coboundary(g, tol=args.tol)
            report.checks.add("two_cocycle_split", (f.coboundary() - g).max_abs(),
                              args.tol)
        except cech.ObstructionError as err:
            report.checks.info["two_cocycle_split"] = str(err)
    report.checks.info["mode"] = mode
    return report


# -- hitchin-residual -------------------------------------------------------------

def cmd_hitchin_residual(args) -> RunReport:
    report = RunReport("hitchin-residual")
    metric = _parse(args.metric, hitchin.MetricData.from_dict)
    phi = _parse(args.higgs, lambda d: hitchin.higgs_matrix(
        *(hitchin.LocalFunction.from_dict(metric.n, d[key])
          for key in ("a", "delta", "gamma"))))
    residual = hitchin.hitchin_residual(metric, phi, tol=args.tol)
    for i in (0, 1):
        for j in (0, 1):
            report.checks.add("residual[%d][%d]" % (i, j),
                              residual[i, j].max_abs(), args.tol)
    report.checks.add("chern_form_routes_agree",
                      (hitchin.chern_form(metric)
                       - hitchin.chern_form_via_inverse(metric)).max_abs(), args.tol)
    return report


# -- fatgraph ----------------------------------------------------------------------

def _load_graph_connection(args):
    graph = _parse(args.graph, fatgraph.FatGraph.from_dict)
    conn = _parse(args.connection, lambda d: fatgraph.connection_from_dict(graph, d))
    return graph, conn


def cmd_fatgraph_normalize(args) -> RunReport:
    report = RunReport("fatgraph-normalize")
    _, conn = _load_graph_connection(args)
    normalized, check = fatgraph.gauge_normalize(conn, tol=args.tol)
    report.checks.extend(check)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(fatgraph.connection_to_dict(normalized), handle, indent=2,
                      sort_keys=True)
    return report


def _parse_cycle(text: str):
    steps = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token[-1] not in "+-":
            raise SystemExit("cycle steps look like '3+' or '2-', got %r" % token)
        steps.append((int(token[:-1]), token[-1] == "+"))
    return steps


def cmd_fatgraph_holonomy(args) -> RunReport:
    report = RunReport("fatgraph-holonomy")
    _, conn = _load_graph_connection(args)
    hol = conn.holonomy(_parse_cycle(args.cycle))
    report.checks.info["holonomy"] = hol.to_dict()
    report.checks.info["supertrace"] = hol.supertrace().to_dict()
    report.checks.info["sdet"] = hol.sdet().to_dict()
    return report


def cmd_fatgraph_punctures(args) -> RunReport:
    report = RunReport("fatgraph-check-punctures")
    _, conn = _load_graph_connection(args)
    report.checks.extend(fatgraph.check_puncture_constraints(conn, tol=args.tol))
    return report


def cmd_fatgraph_dims(args) -> RunReport:
    report = RunReport("fatgraph-dims")
    even, odd = fatgraph.moduli_dims(args.genus, args.punctures,
                                     constrained=args.constrained, su=args.su)
    report.checks.info["even"] = even
    report.checks.info["odd"] = odd
    return report


# -- integrable ----------------------------------------------------------------------

def _systems_for(args, rng):
    if args.system:
        return [_parse(args.system, integrable.ParabolicData.from_dict)]
    return [integrable.random_system(rng, args.m) for _ in range(args.count)]


def cmd_garnier_check(args) -> RunReport:
    report = RunReport("garnier-check")
    rng = np.random.default_rng(args.seed)
    worst_routes = 0.0
    worst_bracket = 0.0
    worst_sum = 0.0
    for p in _systems_for(args, rng):
        hams = [integrable.garnier_hamiltonian(p, i) for i in range(p.m)]
        total = GrassmannElement.zero(p.n)
        for i, h in enumerate(hams):
            worst_routes = max(worst_routes,
                               (h - integrable.garnier_hamiltonian_expanded(p, i)).max_abs())
            total = total + h
        worst_sum = max(worst_sum, total.max_abs())
        for i in range(p.m):
            for j in range(i + 1, p.m):
                worst_bracket = max(worst_bracket,
                                    integrable.poisson_bracket(p, hams[i], hams[j]).max_abs())
    report.checks.add("two_routes_agree", worst_routes, args.tol)
    report.checks.add("poisson_commutativity", worst_bracket, args.tol)
    report.checks.add("hamiltonians_sum_to_zero", worst_sum, args.tol)
    return report


def cmd_gaudin_commute(args) -> RunReport:
    report = RunReport("gaudin-commute")
    rng = np.random.default_rng(args.seed)
    if args.system:
        p = _parse(args.system, integrable.ParabolicData.from_dict)
    else:
        p = integrable.random_system(rng, args.m)
    hams = [integrable.gaudin_hamiltonian(p, i, hbar=args.hbar) for i in range(p.m)]
    scale = max(max(np.abs(h).max() for h in hams), 1.0)
    for i in range(p.m):
        for j in range(i + 1, p.m):
            c = hams[i] @ hams[j] - hams[j] @ hams[i]
            norm = np.linalg.norm(c) / max(np.linalg.norm(hams[i]) * np.linalg.norm(hams[j]), 1e-30)
            report.checks.add("commutator[%d,%d]" % (i, j), norm, args.tol)
    report.checks.add("sum_zero", np.abs(sum(hams)).max() / scale, args.tol)
    # [H, N] for the diagonal fermion number N is H * (n_col - n_row) entrywise
    n = integrable.occupations(p.m).sum(axis=0)
    worst = max(np.abs(h * (n[None, :] - n[:, None])).max() for h in hams)
    report.checks.add("fermion_number_conserved", worst / scale, args.tol)
    report.checks.info["m"] = p.m
    return report


def cmd_quantize_compare(args) -> RunReport:
    report = RunReport("quantize-compare")
    rng = np.random.default_rng(args.seed)
    if args.system:
        p = _parse(args.system, integrable.ParabolicData.from_dict)
    else:
        p = integrable.random_system(rng, args.m)
    for i in range(p.m):
        classical = integrable.garnier_hamiltonian(p, i)
        quantum = integrable.quantize(p, classical, hbar=args.hbar)
        direct = integrable.gaudin_hamiltonian(p, i, hbar=args.hbar)
        report.checks.add("quantize_matches_gaudin[%d]" % i,
                          np.abs(quantum - direct).max(), args.tol)
    report.checks.info["m"] = p.m
    return report


# -- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl11",
        description="Exact checks for GL(1|1) supergeometry computations.")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="pass/fail tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random suites (default 0)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-selftest", help="group law and Berezinian suites")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--corrupt", action="store_true",
                   help="inject a deliberate failure (negative control)")
    p.set_defaults(func=cmd_group_selftest)

    p = sub.add_parser("cech-verify", help="transition-cocycle identities")
    p.add_argument("nerve")
    p.add_argument("data")
    p.add_argument("--mode", choices=("auto", "sl", "gl"), default="auto")
    p.set_defaults(func=cmd_cech_verify)

    p = sub.add_parser("hitchin-residual", help="metric + Higgs residual check")
    p.add_argument("metric")
    p.add_argument("higgs")
    p.set_defaults(func=cmd_hitchin_residual)

    p = sub.add_parser("fatgraph", help="graph-connection operations")
    fat = p.add_subparsers(dest="fatgraph_command", required=True)

    q = fat.add_parser("normalize", help="solve the vertex gauge constraints")
    q.add_argument("graph")
    q.add_argument("connection")
    q.add_argument("-o", "--output", help="write the normalized connection here")
    q.set_defaults(func=cmd_fatgraph_normalize)

    q = fat.add_parser("holonomy", help="holonomy along an edge cycle")
    q.add_argument("graph")
    q.add_argument("connection")
    q.add_argument("--cycle", required=True, help="comma list like '0+,2-,1+'")
    q.set_defaults(func=cmd_fatgraph_holonomy)

    q = fat.add_parser("check-punctures", help="boundary holonomy constraints")
    q.add_argument("graph")
    q.add_argument("connection")
    q.set_defaults(func=cmd_fatgraph_punctures)

    q = fat.add_parser("dims", help="closed-form moduli dimensions")
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--punctures", type=int, required=True)
    q.add_argument("--constrained", action="store_true")
    q.add_argument("--su", action="store_true")
    q.set_defaults(func=cmd_fatgraph_dims)

    p = sub.add_parser("garnier-check", help="classical integrability suite")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--system", help="JSON system file instead of random draws")
    p.set_defaults(func=cmd_garnier_check)

    p = sub.add_parser("gaudin-commute", help="operator commutator suite")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--system")
    p.set_defaults(func=cmd_gaudin_commute)

    p = sub.add_parser("quantize-compare", help="quantized Garnier vs Gaudin")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--system")
    p.set_defaults(func=cmd_quantize_compare)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(report.render(args.format))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
