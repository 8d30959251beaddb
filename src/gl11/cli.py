"""Command-line front end binding all modules to file-based workflows.

Every subcommand has one report path.  Its ``cmd_*`` function returns a
CheckReport: the module's own report where a module builds one
(group_law_suite, the cocycle checks, gauge_normalize,
check_puncture_constraints), else one it fills itself.  ``main`` names the
report once, from the parsed subcommand path (``command_name``), wraps it in
a RunReport, prints it (text or JSON, checks sorted by name) and exits 0
exactly when all checks pass at the requested tolerance, 1 when one fails
and 2 on a usage error.  Random suites are seeded through --seed; a suite
size --count below 1 is a usage error, since an empty suite proves nothing.
cech-verify takes its mode from the data (SL when every s_ij is zero, else
GL) and names it in the report's info; a two-cocycle with a nonzero class
fails two_cocycle_split, whose residual is the least-norm solve's gap.
garnier-check compares each Garnier H_i of the supertrace route, formed from
one str(A_i A_j) per site pair, with the closed-form route, c_i + sum_kl
A_kl theta_k eta_l over the (c_i, A_i) of integrable.one_body, brackets the
former and takes hamiltonians_sum_to_zero over the latter, where the sum
does not vanish by construction.
gaudin-commute and quantize-compare check their identities on the m x m
one-body forms of integrable.one_body and integrable.quantized_one_body, and
gaudin-commute also on the Jordan-Wigner arrays that integrable.one_body_terms
makes of each form, so neither forms a 2^m x 2^m array.  gaudin-commute
takes all products A_i A_j in one matmul call and each norm |A_i| once, and
checks the arrays of each H_i whole, dropping them before it realizes the
next H_i.  The three integrable commands read --m as a site count in 2..32,
so that the 2m generators fit in 64, and hold a --system file's "sites" to the
same range where they read it; gaudin-commute realizes its states only up to
m = 16 and says so beyond.

The argument parser is built once per process, on the first call of
``main``, and reused by later calls; parsing keeps no state between calls,
so in-process callers such as a benchmark loop pay for it once.

A command loads only the modules it reads.  Importing this module runs
grassmann, supergroup and reports; cech, fatgraph, hitchin and integrable
are registered in sys.modules and on the gl11 package, and each is compiled
and run on the first read of one of its attributes.  So group-selftest and
--help run none of the four, cech-verify runs cech, hitchin-residual runs
hitchin, every fatgraph subcommand runs fatgraph and, through its import,
cech, and garnier-check, gaudin-commute and quantize-compare run integrable.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .grassmann import DEFAULT_TOL, GrassmannElement, json_at, json_object, nan_max
from .reports import CheckReport, to_json
from .supergroup import group_law_suite


def _lazy_submodules(*names):
    """The gl11 submodules called names, each run on its first attribute read.

    Each is registered in sys.modules and bound on the gl11 package, as an
    import would leave it, so ``from gl11 import cech`` and the benchmark
    tracer's sys.modules lookup find it; its source is compiled and run only
    when some attribute of it is read.  A module already imported is returned
    as it is.  The first read is not thread-safe (importlib's LazyLoader);
    gl11 runs on one thread.
    """
    package = sys.modules[__package__]
    modules = []
    for name in names:
        fullname = "%s.%s" % (__package__, name)
        module = sys.modules.get(fullname)
        if module is None:
            spec = importlib.util.find_spec(fullname)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[fullname] = module
            spec.loader.exec_module(module)
            setattr(package, name, module)
        modules.append(module)
    return modules


cech, fatgraph, hitchin, integrable = _lazy_submodules("cech", "fatgraph", "hitchin", "integrable")

SELFTEST_GENERATORS = 8


@dataclass
class RunReport:
    """A command's CheckReport under the command's name, with its exit status."""

    command: str
    checks: CheckReport

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
            return to_json(self.to_dict())
        lines = ["== %s ==" % self.command, self.checks.format_text(),
                 "status: %s" % ("pass" if self.exit_status == 0 else "FAIL")]
        return "\n".join(line for line in lines if line)


def _parse(path: str, parse):
    """parse(data) on the JSON object in path.  An unreadable or undecodable
    file and a missing, wrongly typed or invalid field are usage errors
    (exit 2) whose message starts with the path."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise ValueError("%s: %s" % (path, err.strerror)) from None
    except ValueError as err:  # not JSON, or bytes that are not UTF-8
        raise ValueError("%s: %s" % (path, err)) from None
    try:
        return json_at(path, lambda: parse(json_object(data)))
    except TypeError as err:
        raise ValueError("%s (wrongly typed field)" % err) from None


# -- group-selftest -------------------------------------------------------------

def cmd_group_selftest(args) -> CheckReport:
    return group_law_suite(np.random.default_rng(args.seed), SELFTEST_GENERATORS,
                           args.count, args.tol, args.corrupt)


# -- cech-verify -----------------------------------------------------------------

def cmd_cech_verify(args) -> CheckReport:
    nerve = _parse(args.nerve, cech.nerve_from_dict)
    data = _parse(args.data, lambda d: cech.TransitionData.from_dict(nerve, d))
    mode = "sl" if data.is_sl() else "gl"
    check = cech.check_sl_cocycle if mode == "sl" else cech.check_gl_cocycle
    report = check(data, tol=args.tol)
    if report.ok and nerve.simplices[2]:
        g = cech.two_cocycle_g(data)
        if nerve.simplices[3]:
            report.add("two_cocycle_closed", g.coboundary().max_abs(), args.tol)
        try:
            split = cech.solve_coboundary(g, tol=args.tol).coboundary().residual(g)
        except cech.ObstructionError as err:  # a nonzero class fails the check
            split = err.residual
        report.add("two_cocycle_split", split, args.tol)
    report.info["mode"] = mode
    return report


# -- hitchin-residual -------------------------------------------------------------

def cmd_hitchin_residual(args) -> CheckReport:
    report = CheckReport()
    metric = _parse(args.metric, hitchin.MetricData.from_dict)
    phi = _parse(args.higgs, lambda d: hitchin.higgs_from_dict(metric.n, d))
    residual = hitchin.hitchin_residual(metric, phi, tol=args.tol)
    for i in (0, 1):
        for j in (0, 1):
            report.add("residual[%d][%d]" % (i, j), residual[i, j].max_abs(), args.tol)
    report.add("chern_form_routes_agree", hitchin.chern_form(metric).residual(
        hitchin.chern_form_via_inverse(metric)), args.tol)
    return report


# -- fatgraph ----------------------------------------------------------------------

def _load_graph_connection(args):
    graph = _parse(args.graph, fatgraph.FatGraph.from_dict)
    return _parse(args.connection, lambda d: fatgraph.connection_from_dict(graph, d))


def cmd_fatgraph_normalize(args) -> CheckReport:
    normalized, report = fatgraph.gauge_normalize(_load_graph_connection(args), tol=args.tol)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(to_json(fatgraph.connection_to_dict(normalized)))
        except OSError as err:  # an unwritable path is a usage error, like an unreadable one
            raise ValueError("%s: %s" % (args.output, err.strerror)) from None
    return report


def cmd_fatgraph_holonomy(args) -> CheckReport:
    hol = _load_graph_connection(args).holonomy(args.cycle)
    # the elements themselves: to_json writes them straight from their term maps
    return CheckReport(info={"holonomy": {"a": hol.a, "beta": hol.beta,
                                          "gamma": hol.gamma, "d": hol.d},
                             "supertrace": hol.supertrace(), "sdet": hol.sdet()})


def cmd_fatgraph_punctures(args) -> CheckReport:
    return fatgraph.check_puncture_constraints(_load_graph_connection(args), tol=args.tol)


def cmd_fatgraph_dims(args) -> CheckReport:
    even, odd = fatgraph.moduli_dims(args.genus, args.punctures,
                                     constrained=args.constrained, su=args.su)
    return CheckReport(info={"even": even, "odd": odd})


# -- integrable ----------------------------------------------------------------------

def _systems(args, count=1):
    """[the system in the --system file], or count random --m-site systems from --seed."""
    if args.system:
        return [_parse(args.system, integrable.ParabolicData.from_dict)]
    rng = np.random.default_rng(args.seed)
    return [integrable.random_system(rng, args.m) for _ in range(count)]


def cmd_garnier_check(args) -> CheckReport:
    report = CheckReport()
    routes, brackets, sums = [], [], []
    for p in _systems(args, args.count):
        hams = [integrable.garnier_hamiltonian(p, i) for i in range(p.m)]
        expanded = [integrable.garnier_hamiltonian_expanded(p, i) for i in range(p.m)]
        routes += [h.residual(e) for h, e in zip(hams, expanded)]
        # over the expanded route, one_body's closed form: the supertrace route
        # shares str(A_i A_j) between H_i and H_j, so its sum vanishes by
        # construction.  k = 1.0 leaves every finite coefficient's value, so
        # this is the sum's max_abs
        sums.append(GrassmannElement.zero(p.n).add_combination(
            *[(e, 1.0) for e in expanded]).max_abs())
        grads = [integrable.odd_gradient(p, h) for h in hams]
        for i in range(p.m):
            for j in range(i + 1, p.m):
                brackets.append(integrable.poisson_bracket(p, grads[i], grads[j]).max_abs())
    report.add("two_routes_agree", nan_max(routes), args.tol)
    report.add("poisson_commutativity", nan_max(brackets), args.tol)
    report.add("hamiltonians_sum_to_zero", nan_max(sums), args.tol)
    return report


def _realized_maxima(diag, rows, cols, forward, backward):
    """(max |entry|, max |entry * (n_col - n_row)|) of integrable.one_body_terms.

    The second is the largest entry of [H, N] for the diagonal fermion number
    N, n a state's popcount; backward sits at (cols, rows), so its factor is
    the negated one, with the same absolute value.
    """
    if not len(rows):  # a diagonal operator moves no fermion
        return np.abs(diag).max(), 0.0
    entry = nan_max([np.abs(diag).max(), np.abs(forward).max(), np.abs(backward).max()])
    moved = np.bitwise_count(cols).astype(np.int8) - np.bitwise_count(rows)
    return entry, nan_max([np.abs(forward * moved).max(), np.abs(backward * moved).max()])


def cmd_gaudin_commute(args) -> CheckReport:
    """[H_i, H_j] = theta [A_i, A_j] d: checks on m x m matrices and sparse entries."""
    report = CheckReport()
    [p] = _systems(args)
    forms = [integrable.one_body(p, i, hbar=args.hbar) for i in range(p.m)]
    mats = np.array([a for _, a in forms])
    products = mats[:, None] @ mats  # products[i, j] = A_i A_j, one matmul call
    norms = [np.linalg.norm(a) for a in mats]
    for i in range(p.m):
        for j in range(i + 1, p.m):
            norm = (np.linalg.norm(products[i, j] - products[j, i])
                    / max(norms[i] * norms[j], 1e-30))
            report.add("commutator[%d,%d]" % (i, j), norm, args.tol)
    # scale is the largest |entry| of any realized H_i, as max|H_i| densely; each
    # realization is freed before the next is made
    entries, moved = [], []
    for c, a in forms:
        entry, moves = _realized_maxima(*integrable.one_body_terms(c, a))
        entries.append(entry)
        moved.append(moves)
    scale = max(nan_max(entries), 1.0)
    total_c = sum(c for c, _ in forms)
    total_a = sum(a for _, a in forms)
    report.add("sum_zero", nan_max([abs(total_c), np.abs(total_a).max()]) / scale, args.tol)
    report.add("fermion_number_conserved", nan_max(moved) / scale, args.tol)
    report.info["m"] = p.m
    return report


def cmd_quantize_compare(args) -> CheckReport:
    """Quantized Garnier H_i against Gaudin H_i as (c, A) pairs: no 2^m array."""
    report = CheckReport()
    [p] = _systems(args)
    scaled = p.scaled(args.hbar)
    for i in range(p.m):
        c_q, a_q = integrable.quantized_one_body(
            p, integrable.garnier_hamiltonian(scaled, i), args.hbar)
        c, a = integrable.one_body(p, i, hbar=args.hbar)
        report.add("quantize_matches_gaudin[%d]" % i,
                   nan_max([abs(c_q - c), np.abs(a_q - a).max()]), args.tol)
    report.info["m"] = p.m
    return report


# -- argument parsing -------------------------------------------------------------

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _count(text: str) -> int:
    """A suite size: an int of at least 1, since an empty suite proves nothing."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _seed(text: str) -> int:
    """A seed for numpy's default_rng: an int of at least 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative int, got %d" % value)
    return value


def _sites(text: str) -> int:
    """A site count m: an int in 2..integrable.MAX_SITES, so that the 2m generators fit."""
    value = _int(text)
    if not 2 <= value <= integrable.MAX_SITES:
        raise argparse.ArgumentTypeError(
            "must be a site count in 2..%d, so that the 2m generators fit in %d, got %d"
            % (integrable.MAX_SITES, 2 * integrable.MAX_SITES, value))
    return value


def _finite(text: str, ok, wanted: str) -> float:
    """A finite float for which ok(value) holds; wanted says what that means."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not math.isfinite(value) or not ok(value):
        raise argparse.ArgumentTypeError("must be a finite %s, got %r" % (wanted, text))
    return value


def _tolerance(text: str) -> float:
    """A pass/fail tolerance: a finite float of at least 0."""
    return _finite(text, lambda v: v >= 0, "number >= 0")


def _hbar(text: str) -> float:
    """Planck's constant: a finite nonzero float (at 0 every quantum check reads 0 = 0)."""
    return _finite(text, lambda v: v != 0, "nonzero number")


def _cycle(text: str):
    """Cycle steps from a comma list like '0+,2-,1+': [(edge, forward), ...].

    Only the form is checked here, and that some step is named; whether each
    edge exists is checked by ``GraphConnection.holonomy``, which knows the graph.
    """
    steps = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if token[-1] not in "+-":
                raise ValueError
            steps.append((int(token[:-1]), token[-1] == "+"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "cycle steps look like '3+' or '2-', got %r" % token) from None
    if not steps:
        raise argparse.ArgumentTypeError("%r names no step" % text)
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl11",
        description="Exact checks for GL(1|1) supergeometry computations.")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="pass/fail tolerance (default %(default)g)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="seed for random suites (default 0)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-selftest", help="group law and Berezinian suites")
    p.add_argument("--count", type=_count, default=1000)
    p.add_argument("--corrupt", action="store_true",
                   help="inject a deliberate failure (negative control)")
    p.set_defaults(func=cmd_group_selftest)

    p = sub.add_parser("cech-verify", help="transition-cocycle identities")
    p.add_argument("nerve")
    p.add_argument("data")
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
    q.add_argument("--cycle", type=_cycle, required=True,
                   help="comma list like '0+,2-,1+'")
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
    p.add_argument("--m", type=_sites, default=3)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--system", help="JSON system file instead of random draws")
    p.set_defaults(func=cmd_garnier_check)

    p = sub.add_parser("gaudin-commute", help="operator commutator suite")
    p.add_argument("--m", type=_sites, default=4)
    p.add_argument("--hbar", type=_hbar, default=1.0)
    p.add_argument("--system")
    p.set_defaults(func=cmd_gaudin_commute)

    p = sub.add_parser("quantize-compare", help="quantized Garnier vs Gaudin")
    p.add_argument("--m", type=_sites, default=3)
    p.add_argument("--hbar", type=_hbar, default=1.0)
    p.add_argument("--system")
    p.set_defaults(func=cmd_quantize_compare)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of ``main``."""
    return build_parser()


def command_name(args) -> str:
    """The parsed subcommand path as one name: 'cech-verify', 'fatgraph-dims'."""
    if args.command == "fatgraph":
        return "fatgraph-" + args.fatgraph_command
    return args.command


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = RunReport(command_name(args), args.func(args))
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(report.render(args.format))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
