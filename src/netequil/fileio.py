"""Problem, solution, and trace file formats.

Problem files are line-oriented text with a versioned header::

    netequil-problem v1

    [commodities]
    car

    [nodes]
    a
    b

    [arcs]
    # id  tail  head  q=family(key=value,...)  r=orthant|free|box(lo:hi,...)
    top  a  b  q=bpr(alpha=1,rho=1,theta=1,p=1)  r=orthant
    low  a  b  q=bpr(alpha=0.5,rho=1,theta=2,p=1)

    [supplies]
    a  3
    b  -3

    [solver]
    tol = 1e-06
    scheduler = roundrobin:2

'#' starts a comment; tokens carry no internal whitespace.  Capacity
families: ``bpr(alpha,rho,theta,p)``, ``log(omega,theta)``,
``trc(alpha,beta,delta,omega)``, ``powerexp(alpha,theta,p)``, and
``prox(phi=affine(a,b)|quadratic(a)|power(q), lo, hi)``.  An omitted
``r=`` spec defaults to the nonnegative orthant with a warning; nodes
without a supply line get zero supply.  Schedulers are ``full``,
``roundrobin:K``, or ``randomsweep:p`` (seed via the ``seed`` key); when
``T`` is not given it defaults to K-1 for round-robin, 3 for random
sweep, and 0 otherwise.  A missing ``gamma``, ``mu`` or ``sigma`` key
leaves that step parameter to be derived from the graph (see
``solver.step_parameters``); `serialize_problem` writes these keys only
when they were set.

Solution files mirror the shape (``netequil-solution v1`` header with
[meta], [flow], [arc_dual], [potential] sections); traces are CSV with
the fixed column order n, tau, pi, theta, lambda, active_arcs,
active_nodes, residual, millis.  Floats serialize via repr, so parsing a
serialized file reproduces every value bit for bit.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProblemFormatError, ProblemFormatWarning
from .network import Network
from .operators import (
    BPR,
    TRC,
    AffinePhi,
    ArcOperator,
    Box,
    FixedSupply,
    IntervalProx,
    Logarithmic,
    OperatorSet,
    PowerExp,
    PowerPhi,
    QuadraticPhi,
    SeparableLift,
)
from .solver import Full, RandomSweep, RoundRobin, SolverConfig, Termination

__all__ = [
    "Problem",
    "Solution",
    "parse_problem",
    "serialize_problem",
    "parse_solution",
    "serialize_solution",
    "write_trace",
    "TRACE_COLUMNS",
]

PROBLEM_HEADER = "netequil-problem v1"
SOLUTION_HEADER = "netequil-solution v1"
TRACE_COLUMNS = (
    "n",
    "tau",
    "pi",
    "theta",
    "lambda",
    "active_arcs",
    "active_nodes",
    "residual",
    "millis",
)


@dataclass
class Problem:
    """Parsed problem: network, named arcs, operators, solver settings."""

    network: Network
    arc_ids: tuple
    operators: OperatorSet
    config: SolverConfig

    def __eq__(self, other):
        if not isinstance(other, Problem):
            return NotImplemented
        return (
            self.network.nodes == other.network.nodes
            and self.network.arcs == other.network.arcs
            and self.network.commodities == other.network.commodities
            and self.arc_ids == other.arc_ids
            and self.operators.arc_operators == other.operators.arc_operators
            and self.operators.node_operators == other.operators.node_operators
            and self.config == other.config
        )


@dataclass
class Solution:
    """Solver output as stored on disk."""

    arc_ids: tuple
    node_ids: tuple
    flow: np.ndarray
    arc_dual: np.ndarray
    potential: np.ndarray
    residual: float
    iterations: int
    termination: str

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return (
            self.arc_ids == other.arc_ids
            and self.node_ids == other.node_ids
            and np.array_equal(self.flow, other.flow)
            and np.array_equal(self.arc_dual, other.arc_dual)
            and np.array_equal(self.potential, other.potential)
            and self.residual == other.residual
            and self.iterations == other.iterations
            and self.termination == other.termination
        )


# --------------------------------------------------------------------------
# low-level reading helpers
# --------------------------------------------------------------------------


def _read_text(source):
    if hasattr(source, "read"):
        return source.read()
    text = str(source)
    if not text.strip() or "\n" in text or text.startswith("netequil-"):
        return text
    with open(text, "r", encoding="utf-8") as handle:
        return handle.read()


def _logical_lines(text):
    """(line_number, content) pairs with comments and blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _sections(text, header, kind):
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != header:
        raise ProblemFormatError(
            "syntax", f"first line must be {header!r}", line=lines[0][0] if lines else 1
        )
    sections = {}
    current = None
    for lineno, content in lines[1:]:
        if content.startswith("[") and content.endswith("]"):
            current = content[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ProblemFormatError(
                "syntax", f"content before any section in {kind} file", line=lineno
            )
        sections[current].append((lineno, content))
    return sections


def _float(token, section, entity, lineno):
    try:
        return float(token)
    except ValueError:
        raise ProblemFormatError(
            "syntax", f"not a number: {token!r}", section=section, entity=entity, line=lineno
        ) from None


def _int(token, section, entity, lineno):
    try:
        return int(token)
    except ValueError:
        raise ProblemFormatError(
            "syntax", f"not an integer: {token!r}", section=section, entity=entity, line=lineno
        ) from None


_CALL_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\((.*)\)$")


def _split_args(body):
    """Split 'a=1,b=f(x,y)' on top-level commas."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:pos])
            start = pos + 1
    tail = body[start:]
    if tail or parts:
        parts.append(tail)
    return parts


def _parse_callspec(token, section, entity, lineno):
    """'name(k=v,...)' -> (name, {k: v}); values are floats or nested calls."""
    match = _CALL_RE.match(token)
    if match is None:
        if re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", token):
            return token, {}
        raise ProblemFormatError(
            "syntax", f"malformed spec {token!r}", section=section, entity=entity, line=lineno
        )
    name, body = match.groups()
    kwargs = {}
    for part in _split_args(body):
        if not part:
            continue
        if "=" not in part:
            raise ProblemFormatError(
                "syntax",
                f"expected key=value in {token!r}, got {part!r}",
                section=section,
                entity=entity,
                line=lineno,
            )
        key, value = part.split("=", 1)
        if "(" in value:
            kwargs[key] = _parse_callspec(value, section, entity, lineno)
        else:
            kwargs[key] = _float(value, section, entity, lineno)
    return name, kwargs


# --------------------------------------------------------------------------
# operator spec construction
# --------------------------------------------------------------------------

_PHI_FAMILIES = {
    "affine": (AffinePhi, {"a", "b"}),
    "quadratic": (QuadraticPhi, {"a"}),
    "power": (PowerPhi, {"q"}),
}

_CAPACITY_FAMILIES = {
    "bpr": (BPR, {"alpha", "rho", "theta", "p"}),
    "log": (Logarithmic, {"omega", "theta"}),
    "trc": (TRC, {"alpha", "beta", "delta", "omega"}),
    "powerexp": (PowerExp, {"alpha", "theta", "p"}),
}


def _build_capacity(name, kwargs, section, entity, lineno):
    if name in _CAPACITY_FAMILIES:
        cls, allowed = _CAPACITY_FAMILIES[name]
        unknown = set(kwargs) - allowed
        if unknown:
            raise ProblemFormatError(
                "param-range",
                f"{name} does not take parameter(s) {sorted(unknown)}",
                section=section,
                entity=entity,
                line=lineno,
            )
        try:
            return cls(**kwargs)
        except (ConfigurationError, TypeError) as exc:
            raise ProblemFormatError(
                "param-range", f"{name}: {exc}", section=section, entity=entity, line=lineno
            ) from None
    if name == "prox":
        phi_spec = kwargs.pop("phi", None)
        if not isinstance(phi_spec, tuple):
            raise ProblemFormatError(
                "unknown-family",
                "prox requires phi=affine(...)|quadratic(...)|power(...)",
                section=section,
                entity=entity,
                line=lineno,
            )
        phi_name, phi_kwargs = phi_spec
        if phi_name not in _PHI_FAMILIES:
            raise ProblemFormatError(
                "unknown-family",
                f"unknown phi family {phi_name!r}",
                section=section,
                entity=entity,
                line=lineno,
            )
        phi_cls, allowed = _PHI_FAMILIES[phi_name]
        if set(phi_kwargs) - allowed:
            raise ProblemFormatError(
                "param-range",
                f"{phi_name} does not take {sorted(set(phi_kwargs) - allowed)}",
                section=section,
                entity=entity,
                line=lineno,
            )
        try:
            phi = phi_cls(**phi_kwargs)
            return IntervalProx(
                phi, kwargs.pop("lo", -math.inf), kwargs.pop("hi", math.inf)
            )
        except (ConfigurationError, TypeError) as exc:
            raise ProblemFormatError(
                "param-range", f"prox: {exc}", section=section, entity=entity, line=lineno
            ) from None
    raise ProblemFormatError(
        "unknown-family",
        f"unknown capacity family {name!r}",
        section=section,
        entity=entity,
        line=lineno,
    )


def _build_box(token, n_comm, section, entity, lineno):
    if token == "orthant":
        return Box.orthant(n_comm)
    if token == "free":
        return Box.free(n_comm)
    match = _CALL_RE.match(token)
    if match is None or match.group(1) != "box":
        raise ProblemFormatError(
            "syntax",
            f"constraint spec must be orthant, free, or box(lo:hi,...), got {token!r}",
            section=section,
            entity=entity,
            line=lineno,
        )
    lo, hi = [], []
    intervals = _split_args(match.group(2))
    for part in intervals:
        if ":" not in part:
            raise ProblemFormatError(
                "syntax",
                f"box interval must be lo:hi, got {part!r}",
                section=section,
                entity=entity,
                line=lineno,
            )
        a, b = part.split(":", 1)
        lo.append(_float(a, section, entity, lineno))
        hi.append(_float(b, section, entity, lineno))
    if len(lo) != n_comm:
        raise ProblemFormatError(
            "missing-commodity",
            f"box lists {len(lo)} intervals for {n_comm} commodities",
            section=section,
            entity=entity,
            line=lineno,
        )
    try:
        return Box(tuple(lo), tuple(hi))
    except ConfigurationError as exc:
        raise ProblemFormatError(
            "param-range", str(exc), section=section, entity=entity, line=lineno
        ) from None


# --------------------------------------------------------------------------
# problem parsing
# --------------------------------------------------------------------------


def _parse_scheduler(token, seed, section, lineno):
    if token == "full":
        return Full(), 0
    if token.startswith("roundrobin:"):
        groups = _int(token.split(":", 1)[1], section, "scheduler", lineno)
        return RoundRobin(groups), groups - 1
    if token.startswith("randomsweep:"):
        prob = _float(token.split(":", 1)[1], section, "scheduler", lineno)
        return RandomSweep(seed=seed, activation_prob=prob), 3
    raise ProblemFormatError(
        "bad-scheduler",
        f"scheduler must be full, roundrobin:K, or randomsweep:p, got {token!r}",
        section=section,
        entity="scheduler",
        line=lineno,
    )


_SOLVER_KEYS = {
    "gamma",
    "mu",
    "sigma",
    "lambda",
    "T",
    "scheduler",
    "seed",
    "tol",
    "max_iter",
    "check_interval",
    "threads",  # obsolete: read and ignored, with a warning
}


def parse_problem(source):
    """Parse a problem file (path, text, or stream) into a Problem.

    Every constraint violation raises ProblemFormatError with a stable
    diagnostic code and the (section, entity, line) location; parameter
    constraints of the operator specs are enforced here, so solving never
    trips over bad configuration later.
    """
    text = _read_text(source)
    sections = _sections(text, PROBLEM_HEADER, "problem")

    for required in ("commodities", "nodes", "arcs"):
        if required not in sections or not sections[required]:
            raise ProblemFormatError("syntax", f"missing or empty [{required}] section")

    commodities = []
    for lineno, content in sections["commodities"]:
        name = content.split()[0]
        if name in commodities:
            raise ProblemFormatError(
                "duplicate-id", f"duplicate commodity {name!r}", "commodities", name, lineno
            )
        commodities.append(name)
    n_comm = len(commodities)

    nodes = []
    for lineno, content in sections["nodes"]:
        name = content.split()[0]
        if name in nodes:
            raise ProblemFormatError(
                "duplicate-id", f"duplicate node {name!r}", "nodes", name, lineno
            )
        nodes.append(name)

    arc_ids, arc_pairs, arc_ops = [], [], []
    for lineno, content in sections["arcs"]:
        tokens = content.split()
        if len(tokens) < 4:
            raise ProblemFormatError(
                "syntax",
                "arc line needs: id tail head q=... [r=...]",
                "arcs",
                tokens[0] if tokens else None,
                lineno,
            )
        arc_id, tail, head = tokens[0], tokens[1], tokens[2]
        if arc_id in arc_ids:
            raise ProblemFormatError(
                "duplicate-id", f"duplicate arc {arc_id!r}", "arcs", arc_id, lineno
            )
        for endpoint in (tail, head):
            if endpoint not in nodes:
                raise ProblemFormatError(
                    "dangling-node",
                    f"arc {arc_id!r} references undeclared node {endpoint!r}",
                    "arcs",
                    arc_id,
                    lineno,
                )
        if tail == head:
            raise ProblemFormatError(
                "param-range", f"arc {arc_id!r} is a self-loop at {tail!r}", "arcs", arc_id, lineno
            )
        q_spec = None
        r_spec = None
        for token in tokens[3:]:
            if token.startswith("q="):
                q_spec = token[2:]
            elif token.startswith("r="):
                r_spec = token[2:]
            else:
                raise ProblemFormatError(
                    "syntax", f"unexpected token {token!r}", "arcs", arc_id, lineno
                )
        if q_spec is None:
            raise ProblemFormatError(
                "syntax", f"arc {arc_id!r} has no q= capacity spec", "arcs", arc_id, lineno
            )
        name, kwargs = _parse_callspec(q_spec, "arcs", arc_id, lineno)
        capacity = _build_capacity(name, kwargs, "arcs", arc_id, lineno)
        if r_spec is None:
            warnings.warn(
                f"arc {arc_id!r}: no constraint set given, defaulting to the nonnegative orthant",
                ProblemFormatWarning,
                stacklevel=2,
            )
            box = Box.orthant(n_comm)
        else:
            box = _build_box(r_spec, n_comm, "arcs", arc_id, lineno)
        arc_ids.append(arc_id)
        arc_pairs.append((tail, head))
        arc_ops.append(ArcOperator(SeparableLift(capacity), box))

    supplies = {node: (0.0,) * n_comm for node in nodes}
    for lineno, content in sections.get("supplies", []):
        tokens = content.split()
        node = tokens[0]
        if node not in supplies:
            raise ProblemFormatError(
                "dangling-node", f"supply for undeclared node {node!r}", "supplies", node, lineno
            )
        values = tokens[1:]
        if len(values) != n_comm:
            raise ProblemFormatError(
                "missing-commodity",
                f"supply for {node!r} lists {len(values)} values for {n_comm} commodities",
                "supplies",
                node,
                lineno,
            )
        supplies[node] = tuple(_float(v, "supplies", node, lineno) for v in values)

    config = _parse_solver_section(sections.get("solver", []))

    try:
        network = Network(nodes, arc_pairs, commodities)
        operators = OperatorSet(
            network, arc_ops, [FixedSupply(supplies[node]) for node in nodes]
        )
    except ConfigurationError as exc:  # pragma: no cover - guarded above
        raise ProblemFormatError("param-range", str(exc)) from None
    return Problem(network, tuple(arc_ids), operators, config)


def _parse_solver_section(entries):
    raw = {}
    for lineno, content in entries:
        if "=" not in content:
            raise ProblemFormatError(
                "syntax", f"expected key = value, got {content!r}", "solver", None, lineno
            )
        key, value = (part.strip() for part in content.split("=", 1))
        if key not in _SOLVER_KEYS:
            raise ProblemFormatError(
                "unknown-key", f"unknown solver key {key!r}", "solver", key, lineno
            )
        raw[key] = (lineno, value)

    def take_float(key, default):
        if key not in raw:
            return default
        lineno, value = raw[key]
        return _float(value, "solver", key, lineno)

    def take_int(key, default):
        if key not in raw:
            return default
        lineno, value = raw[key]
        return _int(value, "solver", key, lineno)

    seed = take_int("seed", 0)
    scheduler, t_default = Full(), 0
    if "scheduler" in raw:
        lineno, value = raw["scheduler"]
        scheduler, t_default = _parse_scheduler(value, seed, "solver", lineno)
    kwargs = dict(
        gamma=take_float("gamma", None),
        mu=take_float("mu", None),
        sigma=take_float("sigma", None),
        relaxation=take_float("lambda", 1.8),
        T=take_int("T", t_default),
        scheduler=scheduler,
        tol=take_float("tol", 1e-6),
        max_iter=take_int("max_iter", 10**6),
        check_interval=take_int("check_interval", 10),
    )
    if "threads" in raw:
        take_int("threads", 1)  # still rejects a value that is not an integer
        warnings.warn(
            f"line {raw['threads'][0]}: solver key 'threads' is obsolete and ignored",
            ProblemFormatWarning,
            stacklevel=3,
        )
    try:
        return SolverConfig(**kwargs)
    except ConfigurationError as exc:
        raise ProblemFormatError("param-range", str(exc), section="solver") from None


# --------------------------------------------------------------------------
# problem serialization
# --------------------------------------------------------------------------


def _fmt(value):
    return repr(float(value))


def _capacity_token(spec):
    if isinstance(spec, BPR):
        return f"bpr(alpha={_fmt(spec.alpha)},rho={_fmt(spec.rho)},theta={_fmt(spec.theta)},p={_fmt(spec.p)})"
    if isinstance(spec, Logarithmic):
        return f"log(omega={_fmt(spec.omega)},theta={_fmt(spec.theta)})"
    if isinstance(spec, TRC):
        return f"trc(alpha={_fmt(spec.alpha)},beta={_fmt(spec.beta)},delta={_fmt(spec.delta)},omega={_fmt(spec.omega)})"
    if isinstance(spec, PowerExp):
        return f"powerexp(alpha={_fmt(spec.alpha)},theta={_fmt(spec.theta)},p={_fmt(spec.p)})"
    if isinstance(spec, IntervalProx):
        phi = spec.phi
        if isinstance(phi, AffinePhi):
            inner = f"affine(a={_fmt(phi.a)},b={_fmt(phi.b)})"
        elif isinstance(phi, QuadraticPhi):
            inner = f"quadratic(a={_fmt(phi.a)})"
        elif isinstance(phi, PowerPhi):
            inner = f"power(q={_fmt(phi.q)})"
        else:
            raise ConfigurationError("a user-supplied phi cannot be serialized")
        return f"prox(phi={inner},lo={_fmt(spec.lo)},hi={_fmt(spec.hi)})"
    raise ConfigurationError(f"cannot serialize capacity spec {spec!r}")


def _box_token(box, n_comm):
    if box == Box.orthant(n_comm):
        return "orthant"
    if box == Box.free(n_comm):
        return "free"
    parts = ",".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in zip(box.lo, box.hi))
    return f"box({parts})"


def _id_tokens(kind, ids):
    """str() of each id; ConfigurationError for an id that parse_problem would not read back."""
    tokens = [str(value) for value in ids]
    for value, token in zip(ids, tokens):
        if token.split() != [token] or "#" in token or token.startswith("["):
            raise ConfigurationError(
                f"{kind} id {value!r} cannot be written: a file id must be nonempty, "
                "without whitespace or '#', and must not start with '['"
            )
    return tokens


def _scheduler_token(spec):
    if isinstance(spec, Full):
        return "full", None
    if isinstance(spec, RoundRobin):
        return f"roundrobin:{spec.arc_groups}", None
    if isinstance(spec, RandomSweep):
        return f"randomsweep:{_fmt(spec.activation_prob)}", spec.seed
    raise ConfigurationError(f"cannot serialize scheduler {spec!r}")


def serialize_problem(problem):
    """Render a Problem back into file text (parse of which is identical)."""
    net = problem.network
    nodes = _id_tokens("node", net.nodes)
    out = io.StringIO()
    out.write(PROBLEM_HEADER + "\n\n[commodities]\n")
    for name in _id_tokens("commodity", net.commodities):
        out.write(f"{name}\n")
    out.write("\n[nodes]\n")
    for name in nodes:
        out.write(f"{name}\n")
    out.write("\n[arcs]\n")
    for arc_id, (tail, head), op in zip(
        _id_tokens("arc", problem.arc_ids), net.arcs, problem.operators.arc_operators
    ):
        q = _capacity_token(op.q.scalar)
        r = _box_token(op.r, net.n_commodities)
        out.write(f"{arc_id} {tail} {head} q={q} r={r}\n")
    out.write("\n[supplies]\n")
    for name, op in zip(nodes, problem.operators.node_operators):
        values = " ".join(_fmt(v) for v in op.supply)
        out.write(f"{name} {values}\n")
    cfg = problem.config
    # a step parameter left at None (derived from the graph) is not written
    steps = {name: getattr(cfg, name) for name in ("gamma", "mu", "sigma")}
    for name, value in steps.items():
        if value is not None and not np.isscalar(value):
            raise ConfigurationError(f"the file format carries scalar {name} only")
    if isinstance(cfg.relaxation, tuple):
        raise ConfigurationError("the file format carries a constant relaxation only")
    sched_token, seed = _scheduler_token(cfg.scheduler)
    out.write("\n[solver]\n")
    for name, value in steps.items():
        if value is not None:
            out.write(f"{name} = {_fmt(value)}\n")
    out.write(f"lambda = {_fmt(cfg.relaxation)}\n")
    out.write(f"T = {cfg.T}\n")
    out.write(f"scheduler = {sched_token}\n")
    if seed is not None:
        out.write(f"seed = {seed}\n")
    out.write(f"tol = {_fmt(cfg.tol)}\n")
    out.write(f"max_iter = {cfg.max_iter}\n")
    out.write(f"check_interval = {cfg.check_interval}\n")
    return out.getvalue()


# --------------------------------------------------------------------------
# solution files
# --------------------------------------------------------------------------


def serialize_solution(solution):
    out = io.StringIO()
    out.write(SOLUTION_HEADER + "\n\n[meta]\n")
    out.write(f"residual = {_fmt(solution.residual)}\n")
    out.write(f"iterations = {solution.iterations}\n")
    out.write(f"termination = {solution.termination}\n")
    arc_ids = _id_tokens("arc", solution.arc_ids)
    for section, ids, table in (
        ("flow", arc_ids, solution.flow),
        ("arc_dual", arc_ids, solution.arc_dual),
        ("potential", _id_tokens("node", solution.node_ids), solution.potential),
    ):
        out.write(f"\n[{section}]\n")
        for name, row in zip(ids, np.atleast_2d(table)):
            values = " ".join(_fmt(v) for v in row)
            out.write(f"{name} {values}\n")
    return out.getvalue()


def _parse_vector_section(entries, ids, n_comm, section):
    table = np.zeros((len(ids), n_comm))
    index = {name: k for k, name in enumerate(ids)}
    seen = set()
    for lineno, content in entries:
        tokens = content.split()
        name = tokens[0]
        if name not in index:
            raise ProblemFormatError(
                "dangling-node", f"unknown entity {name!r}", section, name, lineno
            )
        if name in seen:
            raise ProblemFormatError(
                "duplicate-id", f"duplicate entry {name!r}", section, name, lineno
            )
        seen.add(name)
        if len(tokens) - 1 != n_comm:
            raise ProblemFormatError(
                "missing-commodity",
                f"{name!r} lists {len(tokens) - 1} values for {n_comm} commodities",
                section,
                name,
                lineno,
            )
        table[index[name]] = [_float(v, section, name, lineno) for v in tokens[1:]]
    missing = set(ids) - seen
    if missing:
        raise ProblemFormatError(
            "missing-commodity", f"section lacks entries for {sorted(missing)}", section
        )
    return table


def parse_solution(source, problem):
    """Parse a solution file against the Problem it belongs to."""
    text = _read_text(source)
    sections = _sections(text, SOLUTION_HEADER, "solution")
    meta = {}
    for lineno, content in sections.get("meta", []):
        if "=" not in content:
            raise ProblemFormatError("syntax", f"expected key = value, got {content!r}", "meta", None, lineno)
        key, value = (part.strip() for part in content.split("=", 1))
        meta[key] = (lineno, value)
    for key in ("residual", "iterations", "termination"):
        if key not in meta:
            raise ProblemFormatError("syntax", f"[meta] lacks {key!r}", "meta", key)
    termination = meta["termination"][1]
    if termination not in {t.value for t in Termination}:
        raise ProblemFormatError(
            "syntax", f"unknown termination {termination!r}", "meta", "termination", meta["termination"][0]
        )
    n_comm = problem.network.n_commodities
    flow = _parse_vector_section(sections.get("flow", []), problem.arc_ids, n_comm, "flow")
    dual = _parse_vector_section(sections.get("arc_dual", []), problem.arc_ids, n_comm, "arc_dual")
    potential = _parse_vector_section(
        sections.get("potential", []), problem.network.nodes, n_comm, "potential"
    )
    return Solution(
        arc_ids=tuple(problem.arc_ids),
        node_ids=tuple(problem.network.nodes),
        flow=flow,
        arc_dual=dual,
        potential=potential,
        residual=_float(meta["residual"][1], "meta", "residual", meta["residual"][0]),
        iterations=_int(meta["iterations"][1], "meta", "iterations", meta["iterations"][0]),
        termination=termination,
    )


# --------------------------------------------------------------------------
# trace files
# --------------------------------------------------------------------------


def write_trace(records, stream, timing=False):
    """Write trace records as CSV with the fixed column order.

    The millis column is written as 0 unless ``timing`` is set, so that
    trace files from identical runs are bitwise identical; pass
    ``timing=True`` to record wall time instead.
    """
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in records:
        residual = "" if rec.residual is None else _fmt(rec.residual)
        millis = _fmt(rec.millis) if timing else "0"
        stream.write(
            f"{rec.n},{_fmt(rec.tau)},{_fmt(rec.pi)},{_fmt(rec.theta)},"
            f"{_fmt(rec.relaxation)},{rec.active_arcs},{rec.active_nodes},"
            f"{residual},{millis}\n"
        )
