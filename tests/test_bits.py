"""Bit-for-bit outcomes against the package at a pinned commit.

The package at BASE is read from local git history into pytest's temporary
directory and imported as a second package, _polycm_base (the package uses
only relative imports, so the copy runs unchanged).  Each corpus family runs
through both trees in this process, on this host's libm, numpy dispatch and
interpreter, and every outcome must agree: the hex of each value and bar,
or the type and message of each exception.  Some inputs are chosen
with BASE's engine; others come from this tree: the orders up to its
MAX_ORDER and the case lists of test_cm.py, test_oracle.py and
test_polygamma.py (SCANS, FALLBACK_SCANS, small_t_cases,
plain_formula_cases, libm_grids, TestBatchedPanels._cases, range_edges),
imported as sibling modules under pytest's default import mode.  Editing
those changes the corpus of both trees alike, so it moves no outcome and
needs no MOVED entry.  The inputs built here take their logs and powers
from libm, not numpy's SIMD loops, so that MOVED entries naming them hold
on every dispatch.

A change that means to move outcomes lists them in MOVED: the test fails on
a move not listed and on a listed entry that did not move, and prints the
moves as lines to paste there.  Where a whole family moves on purpose and
its bits follow numpy's CPU dispatch, so that no list of lines holds on
every dispatch, a rule in MOVES stands in for the lines: each moved outcome
of its family must pass the rule's checks instead of bit equality, and a
rule that matches no move fails as a stale MOVED line does.  A later change
may advance BASE and empty MOVED and MOVES.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import subprocess
import sys
from functools import partial
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import test_cm
import test_oracle
import test_polygamma
from polycm import MAX_ORDER
from polycm.constants import GAMMA_EULER

#: The commit whose package every outcome is compared with (full sha).
BASE = "b2ae4f9c89cb4f84dc825808ef81901fda6f90a3"

#: Outcomes this tree means to move against BASE, each one
#: (family, order, key, outcome at BASE, outcome here) as the failure
#: message prints it; None stands for an outcome one side does not have.
MOVED = []


class Rule(NamedTuple):
    """Moved outcomes of one family that pass checks instead of bit
    equality.  Every moved outcome must keep its kind: an exception its type
    and message, a value a value.  Each check maps a moved value's key, its
    (value, bar) at BASE and its (value, bar) here to a score that passes
    at <= 1."""

    family: str
    reason: str
    checks: tuple[Callable, ...]


def consistent(key, base, head):
    """|v_head - v_base| over bar_head + bar_base: two results that both
    claim to cover the truth must overlap."""
    return abs(head[0] - base[0]) / (head[1] + base[1])


def _rounding_terms(key, value):
    """(|integral|, the bar's terms beside the panels' and the floor's) of
    a quadrature outcome: psi's integral form at n = 0 adds -gamma to its
    integral and eps (gamma + |value|) to its bar, the even gap integral
    4 eps a p!/x^(p+1) to its bar; the others return their integral, up to
    a sign, and add nothing."""
    name, args, _ = key
    eps = sys.float_info.epsilon
    if name == "polygamma_integral" and args[0] == 0:
        return abs(value + GAMMA_EULER), eps * (GAMMA_EULER + abs(value))
    if name == "gap_integral_even":
        a, p, x = args
        return abs(value), 4.0 * eps * a * math.factorial(p) / x ** (p + 1)
    return abs(value), 0.0


#: The rounding slack of the cap below: the bar's sums and the integral
#: recovered from the value each round by at most eps relative.
_CAP_SLACK = 1.0 + 4.0 * sys.float_info.epsilon


def within_tolerance(key, base, head):
    """bar_head over its cap, bar_base + (rel_tol + floor eps) |integral|
    plus the rounding terms, times the slack.  The cutoff search and the
    tail bound are unchanged, so beside the rounding terms only the panel
    term, at most rel_tol |integral| once converged, and the rounding floor
    can grow."""
    rel_tol = _QUADRATURE_SETTINGS[key].get("_REL_TOL", HEAD.oracle._REL_TOL)
    floor = HEAD.oracle._ROUNDING_FLOOR * sys.float_info.epsilon
    integral, terms = _rounding_terms(key, head[0])
    return head[1] / ((base[1] + (rel_tol + floor) * integral + terms) * _CAP_SLACK)


def covered(key, base, head):
    """|v_head - truth| over bar_head, against a 40-digit mpmath referee;
    where BASE's bar misses the referee too, over BASE's own miss, so that
    a move may leave no outcome further outside its bar than BASE did."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        truth = test_oracle.quadrature_referee(mpmath, *key[:2])
        head_miss, base_miss = (float(abs(mpmath.mpf(v) - truth) / bar) for v, bar in (head, base))
    return head_miss / max(1.0, base_miss)


#: Rules for families whose moves no MOVED list can hold on every dispatch;
#: each matches every move of its family.
MOVES = [
    Rule("quadrature", "first round seeded with the √2 ladder; rounding floor; "
                       "rounding terms and a product integrand where routes cancel",
         (consistent, within_tolerance, covered)),
]

ORDERS = range(MAX_ORDER + 1)
_ROOT = Path(__file__).resolve().parents[1]
_RAISES = (ArithmeticError, ValueError, RuntimeError)


def _modules(package):
    return SimpleNamespace(**{name: import_module(f"{package}.{name}")
                              for name in ("polygamma", "cm", "oracle", "bounds")})


HEAD = _modules("polycm")


def _git(*args):
    return subprocess.run(["git", *args], cwd=_ROOT, capture_output=True, check=True).stdout


@pytest.fixture(scope="session")
def base_tree(tmp_path_factory):
    """BASE's package as the modules of _polycm_base, or the message that
    says why it cannot be read."""
    root = tmp_path_factory.mktemp("base") / "_polycm_base"
    root.mkdir()
    try:
        for name in _git("ls-tree", "-r", "--name-only", BASE, "src/polycm").decode().split():
            (root / Path(name).name).write_bytes(_git("show", f"{BASE}:{name}"))
        spec = importlib.util.spec_from_file_location(
            "_polycm_base", root / "__init__.py", submodule_search_locations=[str(root)])
        sys.modules["_polycm_base"] = package = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(package)
    except (OSError, subprocess.CalledProcessError) as e:
        detail = e.stderr.decode().strip() if getattr(e, "stderr", None) else str(e)
        return (f"BASE {BASE} cannot be read from this checkout's git history ({detail}). "
                f"tests/test_bits.py compares the working tree with the package at BASE, "
                f"so it needs a full clone: git clone without --depth, or "
                f"actions/checkout with fetch-depth: 0")
    return _modules("_polycm_base")


def _plain(v):
    """v as a literal that compares bit for bit: each float as its hex, and
    sequences and result objects as tuples of their parts."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return tuple(map(_plain, v))
    if hasattr(v, "__dict__"):
        return tuple(map(_plain, vars(v).values()))
    return v


def _outcome(f, *args):
    """f(*args) as _plain, or the exception's type and message."""
    try:
        return _plain(f(*args))
    except _RAISES as e:
        return type(e).__name__, str(e)


def _returns(base, n, x):
    """Whether BASE's polygamma(n, x) returns: the blocks meant not to raise
    hold only such x."""
    return _outcome(base.polygamma.polygamma, n, x)[0] != "OverflowError"


def _items(out, key, outcome, labels):
    """Adds each item's outcome under key + (i, *its label), or what raised."""
    if outcome and isinstance(outcome[0], str):
        out[(*key, "raised")] = outcome
    else:
        out.update(((*key, i, *label), item)
                   for i, (label, item) in enumerate(zip(labels, outcome)))


def _kernel_blocks(tree, blocks):
    """For each block (name, n, x): the kernel's hex value and bar of each
    element, or what it raises."""
    out = {}
    for name, n, x in blocks:
        outcome = _outcome(lambda: list(zip(*tree.cm._polygamma_array(
            np.array(n, dtype=np.intp), np.array(x, dtype=float)))))
        _items(out, (name,), outcome, zip(n, x))
    return out


def _bit_identity_points(n, t):
    """A log grid over [1e-3, 1e300], the shift threshold t and its one-ulp
    neighbours, and the arguments at which a power the engine or
    factorial_over_power forms, x^e or y^e for e in {n, n + 1, n + 2},
    crosses the overflow, underflow and subnormal edges of binary64.  The
    grid's powers are libm's, as are the edges' exp and log, so MOVED
    entries that name these points hold on every numpy CPU dispatch."""
    xs = [10.0 ** (-3.0 + 303.0 * i / 399) for i in range(400)]
    xs += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf), t - 1.0, t + 1.0]
    edges = (math.log(sys.float_info.max), math.log(sys.float_info.min), -744.44, -745.2)
    for e in {n, n + 1, n + 2} - {0}:
        for log_edge in edges:
            for sign in (1.0, -1.0):
                if abs(log_edge) / e < 709.0:
                    centre = math.exp(sign * log_edge / e)
                    xs += [centre * (1.0 + k * 2e-4) for k in range(-6, 7)]
    return xs


def _fold_stop_points(t):
    """Arguments below the shift threshold t, where the recurrence fold runs:
    a log sweep t 2^(-i/4) down to about 1e-18 t, and each unit interval
    below t at its two ends and two inner points."""
    xs = [t * 2.0 ** (-i / 4) for i in range(1, 240)]
    xs += [j + f for j in range(int(t)) for f in (0.001, 0.25, 0.5, 0.999)]
    return xs


# Each family maps (tree, order, base) to {key: outcome}, where tree is the
# package it runs and base is BASE's, which chooses the inputs.


def _engine(tree, n, base):
    # the series may stop early only where no later term can move a bit,
    # and the fold only at a term that leaves its sum unchanged
    t = base.polygamma.shift_threshold(n)
    out = {}
    for x in _bit_identity_points(n, t) + _fold_stop_points(t):
        out["polygamma", x] = _outcome(tree.polygamma.polygamma, n, x)
        out["factorial_over_power", x] = _outcome(tree.polygamma.factorial_over_power, n, x)
    return out


def _kernel(tree, n, base):
    # the points the engine evaluates in one block, all points in one, which
    # raises what the first raising point raises, and every seventh alone;
    # the range edges each alone, and those that return in one block
    xs = _bit_identity_points(n, base.polygamma.shift_threshold(n))
    edges = test_polygamma.range_edges(n)
    blocks = [("fine", [x for x in xs if _returns(base, n, x)]), ("all", xs),
              *((("alone", x), [x]) for x in xs[::7]), *((("edge", x), [x]) for x in edges),
              ("edges", [x for x in edges if _returns(base, n, x)])]
    return _kernel_blocks(tree, [(name, [n] * len(x), x) for name, x in blocks])


def _kernel_shapes(tree, _, base):
    # every order with every shift count it can take, in one shuffled block
    # that mixes n = 0 and n >= 1 rows, its prefix, and in blocks of one,
    # which sum their shift steps in a loop, and of two, the smallest that
    # sum them in one reduce; blocks with no shift step at all; and blocks
    # in which the first raising element decides what they raise
    t = base.polygamma.shift_threshold
    pairs = [(n, t(n) - count + u) for n in ORDERS for count in range(1, int(t(n)) + 1)
             for u in (1e-3, 0.5, 0.999)]
    pairs = [(n, x) for n, x in pairs if _returns(base, n, x)]
    n, x = zip(*(pairs[i] for i in np.random.default_rng(13).permutation(len(pairs))))
    blocks = [("shuffled", n, x), ("prefix", n[:97], x[:97])]
    blocks += [(("slice", i, size), n[i:i + size], x[i:i + size])
               for i in range(0, len(n), 41) for size in (1, 2)]
    blocks += [("no shifts", [m for m in ORDERS for _ in range(3)],
                [t(m) * s for m in ORDERS for s in (1.0, 1.5, 3.0)]),
               ("no shifts at 0", [0], [t(0)]), ("no shifts at 40", [40], [t(40)])]
    for m, xm in ((28, 122322200237.42154), (40, 1e-8), (40, 1e-7), (0, 1e-310)):
        blocks += [(("raising", m, xm), [3, 0, m, 40], [2.5, 0.25, xm, 1e-7]),
                   (("raising alone", m, xm), [m], [xm])]
    return _kernel_blocks(tree, blocks)


#: Each quadrature key's module settings.
_QUADRATURE_SETTINGS = {(fn.__name__, args, tuple(settings)): settings
                        for fn, args, settings in test_oracle.TestBatchedPanels._cases()}


def _quadrature(tree, _, base):
    # every case of the panel tests, under its module settings
    out = {}
    for key, settings in _QUADRATURE_SETTINGS.items():
        with pytest.MonkeyPatch.context() as mp:
            for name, value in settings.items():
                mp.setattr(tree.oracle, name, value)
            out[key] = _outcome(getattr(tree.oracle, key[0]), *key[1])
    return out


#: The series oracles' arguments: a libm log grid on [1e-3, 1e6].
SERIES_XS = [10.0 ** (-3.0 + 9.0 * i / 120) for i in range(121)]


def _series(tree, n, base):
    # the log grid, and at a few orders a sum of 131,079 terms, which
    # trees that formed its terms 65,536 at a time read in three chunks
    f = partial(tree.oracle.polygamma_series, n) if n else tree.oracle.digamma_series
    out = {x: _outcome(f, x) for x in SERIES_XS}
    if n in (0, 1, 5, 40):
        spec = tree.oracle.SeriesSpec(max_terms=2 * 65536 + 7)
        out.update(((x, "chunks"), _outcome(f, x, spec)) for x in (1e-3, 0.5, 1.3, 2.0, 30.0))
    return out


def _bound_tables(tree, k, base):
    # the first grids have rows on both sides of every order's shift
    # threshold (10 .. 48), the second reach far past them
    out = {}
    for a in (0.01, 0.3, 0.5, 0.99):
        for hi in (60.0, 1e6):
            grid = tree.cm.GridSpec(lo=1.001, hi=hi, points=20)
            rows = _outcome(tree.bounds.bound_table, tree.cm.ShiftParams(a=a, k=k), grid)
            _items(out, (a, hi), rows, ((x,) for x in grid.generate().tolist()))
    return out


def _endpoint_constants(tree, k, base):
    return {a: _outcome(tree.bounds.endpoint_constants, tree.cm.ShiftParams(a=a, k=k))
            for a in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)}


def _scans(tree, _, base):
    # every field of the report, and the gap block's values and bars on all
    # of a scan's samples at once
    out = {}
    for i, (a, k, max_order, g) in enumerate(test_cm.SCANS + test_cm.FALLBACK_SCANS):
        p = tree.cm.ShiftParams(a=a, k=k)
        grid = tree.cm.GridSpec(g.lo, g.hi, g.points)
        n, j = np.divmod(np.arange((max_order + 1) * g.points), g.points)
        x = grid.generate()[j]
        out[i, "cm_scan"] = _outcome(tree.cm.cm_scan, p, max_order, grid)
        block = _outcome(lambda: list(zip(*tree.cm._gap_block(p, n, x)[:2])))
        _items(out, (i, "_gap_block"), block, zip(n.tolist(), x.tolist()))
    return out


def _exp_diff_ratio(tree, _, base):
    # both sides of the series switch, near-equal and generic pairs
    return {(alpha, beta, t): _outcome(tree.cm.exp_diff_ratio, alpha, beta, t)
            for alpha, beta, t in test_cm.small_t_cases() + test_cm.plain_formula_cases()}


def _cm_weight(tree, _, base):
    # both sides of the ratio difference's series switch (t = 0.05) and of
    # t/(1 - e^-t)'s (t = 1e-3), at scalars and in one array; the log grid's
    # powers are libm's, so it is the same on every numpy CPU dispatch
    ts = [0.0, 5e-324, 1e-300, *(1e-8 * 2e10 ** (i / 59) for i in range(60)), 1e4]
    for switch in (1e-3, 0.05):
        ts += [switch, math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)]
    out = {}
    for a in (0.01, 0.3, 0.5, 0.99):
        out["array", a] = _outcome(lambda: tree.oracle.cm_weight(a, np.array(ts)).tolist())
        out.update((("scalar", a, t), _outcome(tree.oracle.cm_weight, a, t)) for t in ts)
    return out


def _grids(tree, _, base):
    # the grids of the libm test, the first 100 of its draws, and grids too
    # narrow for their points
    narrow = [(1.0, 1.0000000000000004, 10),
              (math.nextafter(sys.float_info.max, 0.0), sys.float_info.max, 3)]
    return {(lo, hi, points): _outcome(lambda: tree.cm.GridSpec(lo, hi, points).generate().tolist())
            for lo, hi, points in test_cm.libm_grids(100) + narrow}


#: Each family's function and the orders it runs at; None where a family
#: spans orders.  A failure names the family and the order.
FAMILIES = {
    "engine": (_engine, ORDERS),
    "kernel": (_kernel, ORDERS),
    "kernel_shapes": (_kernel_shapes, [None]),
    "series": (_series, ORDERS),
    "quadrature": (_quadrature, [None]),
    "bound_table": (_bound_tables, ORDERS),
    "endpoint_constants": (_endpoint_constants, ORDERS),
    "cm_scan": (_scans, [None]),
    "exp_diff_ratio": (_exp_diff_ratio, [None]),
    "cm_weight": (_cm_weight, [None]),
    "grid": (_grids, [None]),
}
CASES = [(family, order) for family, (_, orders) in FAMILIES.items() for order in orders]


def _is_value(outcome):
    """Whether an outcome is a value and bar, not what raised or None."""
    return outcome is not None and outcome[0].startswith(("0x", "-0x"))


def _ruled(family, order, moves, rules):
    """The failure lines for the moves, (family, order, key, old, new), that
    the rules match: per rule and check, how many fail and the worst."""
    parts = []
    for rule in rules:
        if not moves:
            parts.append(f"the MOVES rule {rule.reason!r} matched no moved outcome of "
                         f"{family}[{order}]; delete it")
            continue
        kinds = {entry for entry in moves
                 if not (_is_value(entry[3]) and _is_value(entry[4]))}
        scored = {"same kind": [(math.inf, entry) for entry in kinds]}
        values = [(entry, tuple(map(float.fromhex, entry[3][:2])),
                   tuple(map(float.fromhex, entry[4][:2]))) for entry in moves - kinds]
        for check in rule.checks:
            scored[check.__name__.replace("_", " ")] = [
                (check(entry[2], base, head), entry) for entry, base, head in values]
        for name, scores in scored.items():
            failed = [(score, entry) for score, entry in scores if not score <= 1.0]
            if failed:
                score, entry = max(failed, key=lambda item: (item[0], repr(item[1])))
                parts.append(f"{len(failed)} of {len(moves)} moved outcome(s) of "
                             f"{family}[{order}] fail {name} under the MOVES rule "
                             f"{rule.reason!r}; the worst, at {score:.3g}:\n    {entry!r}")
    return parts


def _compare(family, order, old, new, moved, rules=()):
    """The failure message for the outcome maps old (BASE's) and new (this
    tree's) of one family and order, given the MOVED entries and the MOVES
    rules: every move that no rule matches and that is not listed, and
    every listed entry that did not move, each as a line to paste; the
    worst failure of each check of a rule; a rule that matched no move.
    Empty when they agree."""
    moves = {(family, order, key, old.get(key), new.get(key))
             for key in old.keys() | new.keys() if old.get(key) != new.get(key)}
    listed = {entry for entry in moved if entry[:2] == (family, order)}
    rules = [rule for rule in rules if rule.family == family]
    parts = _ruled(family, order, moves, rules)
    unruled = set() if rules else moves
    for entries, heading in ((unruled - listed, "moved against BASE and are not in MOVED; "
                              "if the moves are meant, add these lines to MOVED"),
                             (listed - moves, "in MOVED did not move; delete these lines")):
        if entries:
            parts.append(f"{len(entries)} outcome(s) of {family}[{order}] {heading}:")
            parts += [f"    {entry!r}," for entry in sorted(entries, key=repr)]
    return "\n".join(parts)


@pytest.mark.parametrize("family,order", [
    pytest.param(family, order, id=family if order is None else f"{family}-{order}")
    for family, order in CASES])
def test_outcomes_match_base(base_tree, family, order):
    if isinstance(base_tree, str):
        pytest.fail(base_tree, pytrace=False)
    run = FAMILIES[family][0]
    message = _compare(family, order, run(base_tree, order, base_tree),
                       run(HEAD, order, base_tree), MOVED, MOVES)
    if message:
        pytest.fail(message, pytrace=False)


def test_range_edges_fall_on_both_sides_of_where_the_kernel_raises():
    # else the kernel family's edge outcomes could agree only because the
    # kernel raises on every edge point, or on none
    for n in ORDERS:
        edges = test_polygamma.range_edges(n)
        out = _kernel_blocks(HEAD, [(x, [n], [x]) for x in edges])
        raised = sum((x, "raised") in out for x in edges)
        assert 0 < raised < len(edges), (n, raised, len(edges))


def test_moved_entries_name_a_corpus_case():
    assert [entry for entry in MOVED if len(entry) != 5 or tuple(entry[:2]) not in CASES] == []
    assert [rule for rule in MOVES if rule.family not in FAMILIES] == []


def _pasted(message):
    return [ast.literal_eval(line.strip().rstrip(",")) for line in message.splitlines()
            if line.startswith("    ")]


def test_comparator_reports_unlisted_moves_and_stale_entries():
    key, raised, extra = ("polygamma", 0.5), ("polygamma", 5e-324), ("fine", 0, 3, 2.5)
    old = {key: ("0x1.8p+0", "0x1p-52"),
           raised: ("OverflowError", "psi_3(5e-324) left the binary64 range")}
    # a value that moved, and an outcome only the new tree has
    new = {**old, key: ("0x1.8000000000001p+0", "0x1p-52"), extra: ("0x1p+0", "0x1p-50")}
    message = _compare("engine", 3, old, new, [])
    assert "2 outcome(s) of engine[3] moved against BASE" in message
    pasted = _pasted(message)
    assert sorted(pasted, key=repr) == sorted(
        [("engine", 3, key, old[key], new[key]), ("engine", 3, extra, None, new[extra])], key=repr)
    assert _compare("engine", 3, old, new, pasted) == ""
    # a listed entry that did not move, beside one listed for another order
    stale = ("engine", 3, raised, old[raised], ("OverflowError", "another message"))
    message = _compare("engine", 3, old, old, [stale, ("engine", 4, key, old[key], new[key])])
    assert "1 outcome(s) of engine[3] in MOVED did not move" in message
    assert _pasted(message) == [stale]


def test_comparator_checks_moves_by_rule():
    # a real quadrature outcome against a base one ulp off with a wider bar
    # passes the rule; four mutations of it each fail where they should
    key = ("power_integral", (7, 0.5), ())
    r = HEAD.oracle.power_integral(7, 0.5)
    value, bar = r.value, r.abs_error_estimate
    truth = math.factorial(7) / 0.5**8
    assert 0.0 < abs(value - truth) <= bar

    def compare(head_value, head_bar, rules=MOVES):
        old = {key: (math.nextafter(value, math.inf).hex(), (1.5 * bar).hex())}
        new = {key: (head_value.hex(), head_bar.hex())}
        return _compare("quadrature", None, old, new, [], rules)

    assert compare(value, bar) == ""
    assert "1 outcome(s) of quadrature[None] moved against BASE" in compare(value, bar, [])
    cap = 1.5 * bar + (HEAD.oracle._REL_TOL + HEAD.oracle._ROUNDING_FLOOR
                       * sys.float_info.epsilon) * truth
    for head_value, head_bar, check in ((value + 10.0 * 2.5 * bar, bar, "consistent"),
                                        (value, 2.0 * cap, "within tolerance"),
                                        (value, 0.5 * abs(value - truth), "covered")):
        message = compare(head_value, head_bar)
        assert f"1 of 1 moved outcome(s) of quadrature[None] fail {check} " in message, message
        assert message.count("fail ") == 1 or check == "consistent", message
        assert repr(key) in message
    # a rule whose family did not move
    old = {key: (value.hex(), bar.hex())}
    message = _compare("quadrature", None, old, old, [], MOVES)
    assert message == (f"the MOVES rule {MOVES[0].reason!r} matched no moved outcome of "
                       f"quadrature[None]; delete it")
    # an exception that becomes a value changes kind
    raised = {key: ("QuadratureError", "needed more than 4000 subdivisions")}
    message = _compare("quadrature", None, raised, old, [], MOVES)
    assert "1 of 1 moved outcome(s) of quadrature[None] fail same kind " in message
