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

'#' starts a comment; tokens carry no internal whitespace.  A file may
hold only the sections of its kind, each at most once.  Apart from
[arcs], every line of a section has one of three shapes, and one reader
parses each shape in both file kinds:

- ``id``: [commodities], [nodes];
- ``id v1 ... vC``, one value per commodity: [supplies], and [flow],
  [potential] of solution files;
- ``key = value``: [solver], and [meta] of solution files.

An id or key appears at most once in its section.  Capacity families:
``bpr(alpha,rho,theta,p)``, ``log(omega,theta)``,
``trc(alpha,beta,delta,omega)``, ``powerexp(alpha,theta,p)``, and
``prox(phi=affine(a)|quadratic(a)|power(q), lo, hi)``.  One table,
`_FAMILIES`, maps each family name to its spec class for reading and
writing alike: the dataclass fields of the class are the keys its token
takes, in the order they are written, each at most once.  An omitted
``r=`` spec defaults to the nonnegative orthant with a warning; nodes
without a supply line get zero supply.  Schedulers are ``full``,
``roundrobin:K``, or ``randomsweep:p[:seed]``, whose seed is 0 when left
out; the writer always writes it.  One table, `_SCHEDULERS`, maps each
scheduler name to its spec class and the fields its ':'-separated values
fill, and another, `_SOLVER_KEYS`, holds one [solver] key per field of
`solver.SolverConfig`, each named after its field; both serve reading and
writing alike.  The relaxation and the residual-check interval are
constants of the solver (``solver.RELAXATION``,
``solver.CHECK_INTERVAL``), not keys.  A missing key leaves the field at
its `SolverConfig` default: a missing ``T`` takes the scheduler's own
bound (``solver.sweep_bound``).  The step parameters are no key
(``solver.step_parameters``).  `serialize_problem` writes every
`SolverConfig`, and no key for a field left at None.

Diagnostic codes: ``syntax`` for text of the wrong shape or an unknown
section, ``unknown-key`` for an unknown key, ``unknown-family`` for a
spec naming no family of its kind, ``duplicate-id`` for a repeated
section, id, key or spec parameter, ``dangling-node`` for an undeclared
id, ``missing-commodity`` for a value count that does not match the
commodities, ``bad-scheduler`` for a scheduler token with an unknown
name, too many values or none where one is required, and
``param-range`` for a value its spec rejects: out-of-range or non-finite
parameters, supplies and solution values, a negative ``iterations`` or
``residual`` in [meta] (an inf or nan residual is read, since ``solve``
writes one when no residual can be evaluated), a [solver] setting that
its scheduler spec or `solver.SolverConfig` rejects, at its line, a
scheduler that `solver.make_scheduler` rejects on the parsed network and
T, at the scheduler line, and supplies of a commodity that do not sum to
zero over a weakly connected component (``operators.OperatorSet``),
reported in the [supplies] section.

Solution files mirror the shape (``netequil-solution v1`` header with
[meta], [flow], [potential] sections); traces are CSV with
the fixed column order n, tau, pi, theta, lambda, active_arcs,
active_nodes, residual, millis, where lambda is always
``solver.RELAXATION`` and a residual cell, at the check iterations and on
the last row of a converged run, holds the residual of the point the
row's step reached.  Floats serialize via repr, so parsing a
serialized file reproduces every value bit for bit.
"""

from __future__ import annotations

import dataclasses
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
from .solver import (
    RELAXATION,
    Full,
    RandomSweep,
    RoundRobin,
    SolverConfig,
    Termination,
    make_scheduler,
)

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
_PROBLEM_SECTIONS = ("commodities", "nodes", "arcs", "supplies", "solver")
_SOLUTION_SECTIONS = ("meta", "flow", "potential")
_META_KEYS = ("residual", "iterations", "termination")


@dataclass(eq=False)
class Problem:
    """Parsed problem: network, named arcs, operators, solver settings.

    Compared by identity; two problems are the same when `serialize_problem`
    writes the same text for both.
    """

    network: Network
    arc_ids: tuple
    operators: OperatorSet
    config: SolverConfig


@dataclass(eq=False)
class Solution:
    """Solver output as stored on disk.

    Compared by identity, like `Problem`; `serialize_solution` gives the
    text to compare.
    """

    arc_ids: tuple
    node_ids: tuple
    flow: np.ndarray
    potential: np.ndarray
    residual: float
    iterations: int
    termination: str


# --------------------------------------------------------------------------
# the family table
# --------------------------------------------------------------------------

_FAMILIES = {
    "bpr": BPR,
    "log": Logarithmic,
    "trc": TRC,
    "powerexp": PowerExp,
    "prox": IntervalProx,
    "affine": AffinePhi,
    "quadratic": QuadraticPhi,
    "power": PowerPhi,
}

# class -> (family name, {key: True for a field annotated float, False for
# a nested phi spec}), keys in the order the token writes them
_SPEC_FORMAT = {
    cls: (name, {f.name: f.type == "float" for f in dataclasses.fields(cls)})
    for name, cls in _FAMILIES.items()
}

# what a spec position takes, by the method its class must have
_KINDS = {"family": "capacity", "prox": "phi"}


def _named_boxes(n_comm):
    """The constraint sets a file names instead of listing their intervals."""
    return {"orthant": Box.orthant(n_comm), "free": Box.free(n_comm)}


# --------------------------------------------------------------------------
# reading: sections, tokens, and one reader per line shape
# --------------------------------------------------------------------------
# A location `where` is the (section, entity, line) triple that
# ProblemFormatError takes after its code and message.


def _read_text(source):
    if hasattr(source, "read"):
        return source.read()
    text = str(source)
    if not text.strip() or "\n" in text:
        return text
    with open(text, "r", encoding="utf-8") as handle:
        return handle.read()


def _logical_lines(text):
    """(line_number, content) pairs with comments and blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _sections(text, header, kind, names):
    """{section: [(line_number, content), ...]} of a file of this kind.

    `names` are the sections the kind allows; each may appear once.
    """
    lines = _logical_lines(text)
    first = next(lines, None)
    if first is None or first[1] != header:
        raise ProblemFormatError(
            "syntax", f"first line must be {header!r}", line=first[0] if first else 1
        )
    sections, current = {}, None
    for lineno, content in lines:
        if content.startswith("[") and content.endswith("]"):
            name = content[1:-1].strip()
            if name not in names:
                raise ProblemFormatError(
                    "syntax", f"unknown section [{name}] in {kind} file", name, None, lineno
                )
            if name in sections:
                raise ProblemFormatError(
                    "duplicate-id", f"section [{name}] appears twice", name, None, lineno
                )
            current = sections[name] = []
        elif current is None:
            raise ProblemFormatError(
                "syntax", f"content before any section in {kind} file", line=lineno
            )
        else:
            current.append((lineno, content))
    return sections


def _float(token, where):
    try:
        return float(token)
    except ValueError:
        raise ProblemFormatError("syntax", f"not a number: {token!r}", *where) from None


def _int(token, where):
    try:
        return int(token)
    except ValueError:
        raise ProblemFormatError("syntax", f"not an integer: {token!r}", *where) from None


def _fmt(value):
    return repr(float(value))


# (reader, writer) of a float and of an integer setting
_FLOAT, _INT = (_float, _fmt), (_int, str)


def _construct(cls, args, label, where):
    """cls(**args), reporting a rejected argument as param-range."""
    try:
        return cls(**args)
    except (ConfigurationError, TypeError) as exc:
        raise ProblemFormatError("param-range", f"{label}: {exc}", *where) from None


def _read_ids(entries, section):
    """'id' lines -> {id: line number} in file order; each id once."""
    ids = {}
    for lineno, content in entries:
        name, *extra = content.split()
        where = (section, name, lineno)
        if extra:
            raise ProblemFormatError("syntax", f"unexpected token {extra[0]!r} after the id", *where)
        if name in ids:
            raise ProblemFormatError("duplicate-id", f"duplicate id {name!r}", *where)
        ids[name] = lineno
    return ids


def _read_rows(entries, ids, n_comm, section):
    """'id v1 ... vC' lines -> {id: (values, where)} in file order.

    Each line names one of `ids`, each at most once, with one value per
    commodity.
    """
    rows = {}
    for lineno, content in entries:
        name, *values = content.split()
        where = (section, name, lineno)
        if name not in ids:
            raise ProblemFormatError("dangling-node", f"undeclared id {name!r}", *where)
        if name in rows:
            raise ProblemFormatError("duplicate-id", f"duplicate entry {name!r}", *where)
        if len(values) != n_comm:
            raise ProblemFormatError(
                "missing-commodity",
                f"{name!r} lists {len(values)} values for {n_comm} commodities",
                *where,
            )
        rows[name] = (tuple(_float(v, where) for v in values), where)
    return rows


def _read_keys(entries, keys, section):
    """'key = value' lines -> {key: (value, where)}; each of `keys` at most once."""
    found = {}
    for lineno, content in entries:
        key, eq, value = content.partition("=")
        if not eq:
            raise ProblemFormatError(
                "syntax", f"expected key = value, got {content!r}", section, None, lineno
            )
        key = key.strip()
        where = (section, key, lineno)
        if key not in keys:
            raise ProblemFormatError("unknown-key", f"unknown {section} key {key!r}", *where)
        if key in found:
            raise ProblemFormatError("duplicate-id", f"key {key!r} is set twice", *where)
        found[key] = (value.strip(), where)
    return found


_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
_NAME_RE = re.compile(_NAME)
_CALL_RE = re.compile(rf"^({_NAME})\((.*)\)$")


def _split_args(body):
    """Split 'a=1,b=f(x,y)' on top-level commas."""
    if "(" not in body:
        return body.split(",") if body else []
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:pos])
            start = pos + 1
    parts.append(body[start:])
    return parts


def _parse_callspec(token, where):
    """'name(k=v,...)' -> (name, {k: v}); values are floats or nested calls."""
    match = _CALL_RE.match(token)
    if match is None:
        if _NAME_RE.fullmatch(token):
            return token, {}
        raise ProblemFormatError("syntax", f"malformed spec {token!r}", *where)
    name, body = match.groups()
    kwargs = {}
    for part in _split_args(body):
        key, eq, value = part.partition("=")
        if not eq:
            raise ProblemFormatError(
                "syntax", f"expected key=value in {token!r}, got {part!r}", *where
            )
        if key in kwargs:
            raise ProblemFormatError("duplicate-id", f"{name} repeats parameter {key!r}", *where)
        kwargs[key] = _parse_callspec(value, where) if "(" in value else _float(value, where)
    return name, kwargs


def _build(call, kind, where):
    """Spec object of a parsed call whose class has the method `kind` (see _KINDS)."""
    name, kwargs = call
    cls = _FAMILIES.get(name)
    if not hasattr(cls, kind):
        raise ProblemFormatError("unknown-family", f"unknown {_KINDS[kind]} family {name!r}", *where)
    fields = _SPEC_FORMAT[cls][1]
    for key, number in fields.items():
        if not number:
            nested = kwargs.get(key)
            if not isinstance(nested, tuple):
                phis = "|".join(f"{n}(...)" for n, c in _FAMILIES.items() if hasattr(c, "prox"))
                raise ProblemFormatError("unknown-family", f"{name} requires {key}={phis}", *where)
            kwargs[key] = _build(nested, "prox", where)
    unknown = kwargs.keys() - fields.keys()
    if unknown:
        raise ProblemFormatError(
            "param-range", f"{name} does not take parameter(s) {sorted(unknown)}", *where
        )
    return _construct(cls, kwargs, name, where)


def _build_box(token, n_comm, where):
    match = _CALL_RE.match(token)
    if match is None or match.group(1) != "box":
        raise ProblemFormatError(
            "syntax",
            f"constraint spec must be orthant, free, or box(lo:hi,...), got {token!r}",
            *where,
        )
    lo, hi = [], []
    for part in _split_args(match.group(2)):
        a, colon, b = part.partition(":")
        if not colon:
            raise ProblemFormatError("syntax", f"box interval must be lo:hi, got {part!r}", *where)
        lo.append(_float(a, where))
        hi.append(_float(b, where))
    if len(lo) != n_comm:
        raise ProblemFormatError(
            "missing-commodity", f"box lists {len(lo)} intervals for {n_comm} commodities", *where
        )
    return _construct(Box, {"lo": tuple(lo), "hi": tuple(hi)}, "box", where)


# --------------------------------------------------------------------------
# problem parsing
# --------------------------------------------------------------------------


# scheduler name -> (spec class, {field: (reader, writer)}): the fields
# that the ':'-separated values after the name fill, in order.  A token
# gives the first value at least, a value it leaves out takes the spec's
# default, and the writer writes every one.  The writer takes the first
# class that the spec is an instance of, so Full precedes its base class.
_SCHEDULERS = {
    "full": (Full, {}),
    "roundrobin": (RoundRobin, {"arc_groups": _INT}),
    "randomsweep": (RandomSweep, {"activation_prob": _FLOAT, "seed": _INT}),
}


def _parse_scheduler(token, where):
    """Scheduler spec of a 'full', 'roundrobin:K' or 'randomsweep:p[:seed]' token."""
    name, *values = token.split(":")
    cls, fields = _SCHEDULERS.get(name, (None, {}))
    if cls is None or not min(1, len(fields)) <= len(values) <= len(fields):
        raise ProblemFormatError(
            "bad-scheduler",
            f"scheduler must be full, roundrobin:K, or randomsweep:p[:seed], got {token!r}",
            *where,
        )
    return cls(**{key: read(value, where) for (key, (read, _)), value in zip(fields.items(), values)})


def _scheduler_token(spec):
    """The token of spec that `_parse_scheduler` reads back, every value written."""
    for name, (cls, fields) in _SCHEDULERS.items():
        if isinstance(spec, cls):
            return ":".join([name, *(write(getattr(spec, key)) for key, (_, write) in fields.items())])
    raise ConfigurationError(f"cannot serialize scheduler {spec!r}")


# [solver] key -> (reader, writer) of the SolverConfig field of that name,
# in the order the writer writes them.  A key that is absent leaves the
# field at its default, and a field left at None is not written.
_SOLVER_KEYS = {
    "T": _INT,
    "scheduler": (_parse_scheduler, _scheduler_token),
    "tol": _FLOAT,
    "max_iter": _INT,
}


def parse_problem(source):
    """Parse a problem file (path, text, or stream) into a Problem.

    Every constraint violation raises ProblemFormatError with a stable
    diagnostic code and the (section, entity, line) location; parameter
    constraints of the operator specs and of the solver settings are
    enforced here, so solving never trips over bad configuration later.
    """
    sections = _sections(_read_text(source), PROBLEM_HEADER, "problem", _PROBLEM_SECTIONS)
    for required in ("commodities", "nodes", "arcs"):
        if not sections.get(required):
            raise ProblemFormatError("syntax", f"missing or empty [{required}] section")
    commodities = _read_ids(sections["commodities"], "commodities")
    nodes = _read_ids(sections["nodes"], "nodes")
    n_comm = len(commodities)
    boxes = _named_boxes(n_comm)

    arc_ids, arc_pairs, arc_ops = {}, [], []
    for lineno, content in sections["arcs"]:
        tokens = content.split()
        arc_id = tokens[0]
        where = ("arcs", arc_id, lineno)
        if len(tokens) < 4:
            raise ProblemFormatError("syntax", "arc line needs: id tail head q=... [r=...]", *where)
        tail, head = tokens[1], tokens[2]
        if arc_id in arc_ids:
            raise ProblemFormatError("duplicate-id", f"duplicate arc {arc_id!r}", *where)
        for endpoint in (tail, head):
            if endpoint not in nodes:
                raise ProblemFormatError(
                    "dangling-node",
                    f"arc {arc_id!r} references undeclared node {endpoint!r}",
                    *where,
                )
        if tail == head:
            raise ProblemFormatError("param-range", f"arc {arc_id!r} is a self-loop at {tail!r}", *where)
        specs = {}
        for token in tokens[3:]:
            if not token.startswith(("q=", "r=")):
                raise ProblemFormatError("syntax", f"unexpected token {token!r}", *where)
            if token[0] in specs:
                raise ProblemFormatError("duplicate-id", f"arc {arc_id!r} repeats {token[:2]}", *where)
            specs[token[0]] = token[2:]
        if "q" not in specs:
            raise ProblemFormatError("syntax", f"arc {arc_id!r} has no q= capacity spec", *where)
        capacity = _build(_parse_callspec(specs["q"], where), "family", where)
        if "r" in specs:
            box = boxes.get(specs["r"]) or _build_box(specs["r"], n_comm, where)
        else:
            warnings.warn(
                f"arc {arc_id!r}: no constraint set given, defaulting to the nonnegative orthant",
                ProblemFormatWarning,
                stacklevel=2,
            )
            box = boxes["orthant"]
        arc_ids[arc_id] = lineno
        arc_pairs.append((tail, head))
        arc_ops.append(ArcOperator(SeparableLift(capacity), box))

    supplies = dict.fromkeys(nodes, FixedSupply((0.0,) * n_comm))
    rows = _read_rows(sections.get("supplies", ()), nodes, n_comm, "supplies")
    for node, (values, where) in rows.items():
        supplies[node] = _construct(FixedSupply, {"supply": values}, "supply", where)

    try:
        network = Network(nodes, arc_pairs, commodities)
        operators = OperatorSet(network, arc_ops, supplies.values())
    except ConfigurationError as exc:  # unbalanced supplies; the rest is guarded above
        raise ProblemFormatError("param-range", str(exc), section="supplies") from None
    config = _parse_solver_section(sections.get("solver", ()), network)
    return Problem(network, tuple(arc_ids), operators, config)


def _parse_solver_section(entries, network):
    """SolverConfig of the [solver] lines, checked as `solver.run` checks it on network.

    A scheduler spec and `SolverConfig` check each setting on its own, so
    each is read and checked alone, in key order, and the first one
    rejected is reported at its line.  What `solver.make_scheduler`
    rejects, which depends on the network and T as well, is reported at
    the scheduler line: the default `Full` fits every T on every network
    of at least one arc, which is every network that a problem file
    holds.
    """
    raw = _read_keys(entries, _SOLVER_KEYS, "solver")
    settings = {}
    for key, (read, _) in _SOLVER_KEYS.items():
        if key in raw:
            value, where = raw[key]
            try:
                settings[key] = read(value, where)
                SolverConfig(**{key: settings[key]})
            except ConfigurationError as exc:
                raise ProblemFormatError("param-range", str(exc), *where) from None
    config = SolverConfig(**settings)
    try:
        make_scheduler(config.scheduler, network, config.T)
    except ConfigurationError as exc:
        raise ProblemFormatError("param-range", str(exc), *raw["scheduler"][1]) from None
    return config


# --------------------------------------------------------------------------
# writing: one writer per line shape
# --------------------------------------------------------------------------


def _render(header, sections):
    """File text: the header line, then each (name, lines) section after a blank line."""
    lines = [header]
    for name, body in sections:
        lines += ["", f"[{name}]", *body]
    return "\n".join(lines) + "\n"


def _row_lines(ids, rows):
    """'id v1 ... vC' lines."""
    return [f"{name} {' '.join(map(_fmt, row))}" for name, row in zip(ids, rows)]


def _key_lines(pairs):
    """'key = value' lines."""
    return [f"{key} = {value}" for key, value in pairs]


def _spec_token(spec):
    """'name(key=value,...)' of a capacity or phi spec, keys in field order."""
    entry = _SPEC_FORMAT.get(type(spec))
    if entry is None:
        raise ConfigurationError(f"cannot serialize {spec!r}: not a family of the file format")
    name, fields = entry
    args = ",".join(
        f"{key}={_fmt(getattr(spec, key)) if number else _spec_token(getattr(spec, key))}"
        for key, number in fields.items()
    )
    return f"{name}({args})"


def _box_token(box, names):
    """Name of box in `names` (box -> name), else box(lo:hi,...)."""
    name = names.get(box)
    if name is not None:
        return name
    return "box(" + ",".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in zip(box.lo, box.hi)) + ")"


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


def serialize_problem(problem):
    """Render a Problem back into file text (parse of which is identical)."""
    net, ops, cfg = problem.network, problem.operators, problem.config
    nodes = _id_tokens("node", net.nodes)
    commodities = _id_tokens("commodity", net.commodities)
    box_names = {box: name for name, box in _named_boxes(net.n_commodities).items()}
    arcs = [
        f"{arc_id} {tail} {head} q={_spec_token(op.q.scalar)} r={_box_token(op.r, box_names)}"
        for arc_id, (tail, head), op in zip(
            _id_tokens("arc", problem.arc_ids), net.arcs, ops.arc_operators
        )
    ]
    solver = [
        (key, write(getattr(cfg, key)))
        for key, (_, write) in _SOLVER_KEYS.items()
        if getattr(cfg, key) is not None
    ]
    return _render(
        PROBLEM_HEADER,
        [
            ("commodities", commodities),
            ("nodes", nodes),
            ("arcs", arcs),
            ("supplies", _row_lines(nodes, (op.supply for op in ops.node_operators))),
            ("solver", _key_lines(solver)),
        ],
    )


# --------------------------------------------------------------------------
# solution files
# --------------------------------------------------------------------------


def serialize_solution(solution):
    arc_ids = _id_tokens("arc", solution.arc_ids)
    meta = [
        ("residual", _fmt(solution.residual)),
        ("iterations", solution.iterations),
        ("termination", solution.termination),
    ]
    return _render(
        SOLUTION_HEADER,
        [
            ("meta", _key_lines(meta)),
            ("flow", _row_lines(arc_ids, np.atleast_2d(solution.flow))),
            (
                "potential",
                _row_lines(_id_tokens("node", solution.node_ids), np.atleast_2d(solution.potential)),
            ),
        ],
    )


def parse_solution(source, problem):
    """Parse a solution file against the Problem it belongs to."""
    sections = _sections(_read_text(source), SOLUTION_HEADER, "solution", _SOLUTION_SECTIONS)
    meta = _read_keys(sections.get("meta", ()), _META_KEYS, "meta")
    for key in _META_KEYS:
        if key not in meta:
            raise ProblemFormatError("syntax", f"[meta] lacks {key!r}", "meta", key)
    termination, where = meta["termination"]
    if termination not in {t.value for t in Termination}:
        raise ProblemFormatError("syntax", f"unknown termination {termination!r}", *where)
    residual, iterations = _float(*meta["residual"]), _int(*meta["iterations"])
    for key, value in (("residual", residual), ("iterations", iterations)):
        if value < 0:
            raise ProblemFormatError("param-range", f"{key} is negative: {value!r}", *meta[key][1])
    n_comm = problem.network.n_commodities
    tables = []
    for section, ids in (
        ("flow", problem.arc_ids),
        ("potential", problem.network.nodes),
    ):
        known = set(ids)
        rows = _read_rows(sections.get(section, ()), known, n_comm, section)
        missing = known - rows.keys()
        if missing:
            raise ProblemFormatError(
                "missing-commodity", f"section lacks entries for {sorted(missing)}", section
            )
        table = np.array([rows[name][0] for name in ids], dtype=float).reshape(len(ids), n_comm)
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
        if bad.size:
            name = ids[bad[0]]
            raise ProblemFormatError("param-range", f"{name!r} has a non-finite value", *rows[name][1])
        tables.append(table)
    flow, potential = tables
    return Solution(
        arc_ids=tuple(problem.arc_ids),
        node_ids=tuple(problem.network.nodes),
        flow=flow,
        potential=potential,
        residual=residual,
        iterations=iterations,
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
    lam = _fmt(RELAXATION)
    for rec in records:
        residual = "" if rec.residual is None else _fmt(rec.residual)
        millis = _fmt(rec.millis) if timing else "0"
        stream.write(
            f"{rec.n},{_fmt(rec.tau)},{_fmt(rec.pi)},{_fmt(rec.theta)},"
            f"{lam},{rec.active_arcs},{rec.active_nodes},"
            f"{residual},{millis}\n"
        )
