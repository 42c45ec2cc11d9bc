"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced function of the plqnewton modules
(the layers) with a wrapper, at every module attribute that binds it, because
the modules import each other's functions by name. Methods are patched on
their class. Each call becomes a span (id, parent id, function, op id, start,
end) kept in memory; a layer's self time is its spans' durations minus the
time of their child spans. `uninstall()` restores the originals.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# Traced functions per layer; "Class.method" names a method. The expression
# tree walkers (eval_jet, eval_value) are left out: they recurse per node, and
# their time is part of SmoothMap.value / SmoothMap.evaluate.
TRACED = {
    "problems": ("load_problem", "parse_problem_dict"),
    "plq": ("eval_with_active", "validate_representation", "piece_interior_point",
            "sample_point_in_piece", "sample_domain_point", "finite_value"),
    "simplex": ("solve_lp", "feasible_point", "max_slack_point"),
    "calculus": ("cone_generators", "cone_contains", "subdiff_hrep", "dir_deriv_first",
                 "dir_deriv_second", "PolyhedronH.implicit_equality_mask"),
    "exprmap": ("SmoothMap.value", "SmoothMap.evaluate"),
    "composite": ("check_cqs", "multiplier_set", "bcq_holds", "kkt_residual"),
    "manifold": ("build_manifold", "manifold_contains", "mu_of", "strictness_check",
                 "certify_partial_smoothness"),
    "certify": ("certify_sosc", "certify_subregularity"),
    "solver": ("newton_solve", "restricted_newton_step", "solve_subproblem_enum",
               "quasi_newton_solve", "smooth_newton_solve"),
    "rates": ("classify_rate",),
    "cli": ("run_report",),
}
LAYERS = tuple(TRACED) + ("bench",)


def _lp_size(c, F=None, f=None, E=None, e=None):
    """(variables, rows) of a solve_lp call, read from its arguments."""
    return len(c), sum(0 if rhs is None else len(rhs) for rhs in (f, e))


def _lp_hook(tracer, args, kwargs, result):
    nvar, rows = _lp_size(*args, **kwargs)
    tracer.counts["simplex.lp.cells"] += rows * nvar
    if result.status == "infeasible":
        tracer.counts["simplex.lp.infeasible"] += 1


def _enum_hook(tracer, args, kwargs, result):
    """Candidate structures K * 2^s tried, and consistent ones found."""
    h = args[0].h
    tracer.counts["solver.enum.structures"] += h.n_pieces * 2 ** h.n_hyperplanes
    tracer.counts["solver.enum.consistent"] += len(result)


HOOKS = {"simplex.solve_lp": _lp_hook, "solver.solve_subproblem_enum": _enum_hook}


class Tracer:
    def __init__(self):
        self.spans = []              # (id, parent id, key, op id, t0, t1)
        self.op_kinds = {0: ""}      # op id -> op kind
        self.counts = Counter()      # hook counters
        self.op_id = 0
        self.missing = []            # traced names the library lacks
        self._ids = itertools.count(1)
        self._stack = [0]            # ids of the open spans; 0 is the root
        self._patched = []           # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, key, fn):
        stack, append, ids, perf = self._stack, self.spans.append, self._ids, time.perf_counter
        hook = HOOKS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                append((sid, parent, key, tracer.op_id, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def span(self, key, fn, *args, op_kind):
        """Run fn(*args) as a new op: a root span of the benchmark's own layer."""
        self.op_id += 1
        self.op_kinds[self.op_id] = op_kind
        return self._wrap(key, fn)(*args)

    def summary(self):
        """Per-function calls and inclusive seconds, per-layer self seconds, and
        per op kind the calls of each function."""
        child = defaultdict(float)
        for sid, parent, key, op, t0, t1 in self.spans:
            child[parent] += t1 - t0
        calls, incl = Counter(), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        kind_calls = defaultdict(Counter)
        for sid, parent, key, op, t0, t1 in self.spans:
            calls[key] += 1
            incl[key] += t1 - t0
            layer_self[key.partition(".")[0]] += t1 - t0 - child[sid]
            kind_calls[self.op_kinds[op]][key] += 1
        return calls, incl, layer_self, kind_calls

    # -- install / uninstall ------------------------------------------------------

    def install(self):
        originals = {}                       # id(original) -> wrapper
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"plqnewton.{layer}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                else:
                    originals[id(fn)] = wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "plqnewton" or mod_name.startswith("plqnewton.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------------

    def write_spans(self, path):
        """One span per line: id parent function op start_s end_s."""
        spans = sorted(self.spans)
        base = spans[0][4] if spans else 0.0
        with open(path, "w") as fh:
            fh.write("id parent function op start_s end_s\n")
            for sid, parent, key, op, t0, t1 in spans:
                fh.write(f"{sid} {parent} {key} {op} {t0 - base:.9f} {t1 - base:.9f}\n")
