"""Per-layer timing of ufabound from outside the package.

``Tracer.install`` wraps, in the running interpreter, the public functions of
every ufabound layer module and a few named private kernels and methods.  A
module that bound a function with ``from .x import f`` holds its own
reference, so each wrapper is installed on every module (and module-level
list) that refers to the original.  Nothing under ``src/`` is edited.

Every wrapped call is timed.  A call's self time is its duration minus the
time its wrapped callees took; per function the tracer keeps the call count,
the self time and the time of its outermost calls.  The first
``SPAN_LIMIT`` calls of each function per round are also kept as spans
(name, start, end, parent span, run id) in memory and written out by the
caller when the round ends; later calls of the hot leaves (``haspath``,
``m_entry``, ``twonfa_accepts`` ...) are only aggregated.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time
from collections import defaultdict

LAYER_MODULES = ("cli", "verification", "crossing", "witness", "tables",
                 "combinatorics", "automata", "exact_linalg")

# private kernels and methods that are layers of their own
EXTRA_FUNCTIONS = {
    "cli": ("_cmd_build_matrix", "_cmd_rank", "_cmd_verify", "_cmd_schmidt"),
    "witness": ("_row_bits", "_suffix_arc_maps"),
}
# accessors called per simulation step or per matrix entry: wrapping them
# would cost more than they do, so their time stays with their callers;
# build_parser is part of cli.main's argument parsing
UNWRAPPED = {"automata.tape_symbol", "tables.starting_state", "tables.table_size",
             "tables.prefix_graph", "tables.suffix_graph", "witness.table_pair_graph",
             "cli.build_parser"}
METHODS = (("witness", "BoolMatrix", "to_lists"),
           ("witness", "BoolMatrix", "to_numpy"),
           ("witness", "WitnessAutomaton", "accepts"))

SPAN_LIMIT = 1000

VERIFY_CHECKS = (
    "check_orderedness_agreement", "check_entry_simulation_agreement",
    "check_augmentation_identity", "check_layer_rank",
    "check_count_matches_enumeration", "check_staged_suffix_tables",
    "check_drop_down_rows", "check_breakthrough_completion",
    "check_forced_breakthrough", "check_matrix_rank_is_count",
    "check_random_automata_bound")
CLI_COMMANDS = ("build_matrix", "rank", "verify", "schmidt")
PREDICATES = ("is_ordered", "layer_structure", "break_set", "drop_layers")

# functions timed together: a group's time counts each outermost call once,
# so nested members are not added twice
GROUPS = {
    "tables.enumerate_prefix_tables": "group:tables.enumerate",
    "tables.enumerate_suffix_tables": "group:tables.enumerate",
    "witness.build_K": "group:witness.build",
    "witness.build_M": "group:witness.build",
    "crossing.prefix_table_of": "group:crossing.profile",
    "crossing.suffix_table_of": "group:crossing.profile",
    **{f"tables.{p}": "group:tables.predicates" for p in PREDICATES},
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cells(m) -> int:
    if hasattr(m, "cols") and hasattr(m, "bits"):
        return m.rows * m.cols
    if hasattr(m, "shape"):
        return int(m.size)
    return len(m) * (len(m[0]) if len(m) else 0)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.root_s = 0.0
        self._depth = defaultdict(int)
        self._stack: list[list] = []  # [callee time, nearest recorded span id]
        self._next_id = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, namer=None, group=None):
        calls, self_s, outer_s = self.calls, self.self_s, self.outer_s
        depth, stack, spans = self._depth, self._stack, self.spans
        clock = time.perf_counter

        fixed_keys = (name, group) if group else (name,)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if namer:
                key = namer(args, kwargs)
                outer_keys = (key,)
            else:
                key, outer_keys = name, fixed_keys
            parent = stack[-1][1] if stack else -1
            span_id = parent
            if calls[key] < SPAN_LIMIT:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            for k in outer_keys:
                depth[k] += 1
            before = _maxrss_mb() if after else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                for k in outer_keys:
                    calls[k] += 1
                    depth[k] -= 1
                    if depth[k] == 0:
                        outer_s[k] += elapsed
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                if span_id != parent:
                    spans.append((span_id, key, start, end, parent, self.run_id))
            if after:
                after(self.counters, args, kwargs, result, _maxrss_mb() - before)
            return result

        return wrapper

    def install(self) -> None:
        import importlib
        import sys

        modules = {short: importlib.import_module(f"ufabound.{short}")
                   for short in LAYER_MODULES}
        hooks = {
            "tables.enumerate_prefix_tables": _after_enumerate,
            "tables.enumerate_suffix_tables": _after_enumerate,
            "witness.build_K": _after_build, "witness.build_M": _after_build,
            "witness.save_matrix": _after_save, "witness.load_matrix": _after_load,
            "witness.BoolMatrix.to_lists": _after_to_lists,
            "exact_linalg.rank_mod_p": _after_rank_mod_p,
            "exact_linalg.rank_exact": _after_rank_exact,
            "crossing.verify_optimality": _after_verify_optimality,
        }
        namers = {"exact_linalg.rank_mod_p": _rank_mod_p_name,
                  "cli.main": _cli_main_name}
        replaced = {}
        for short, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += EXTRA_FUNCTIONS.get(short, ())
            for n in names:
                fn = getattr(mod, n)
                key = f"{short}.{n}"
                if key in UNWRAPPED:
                    continue
                replaced[id(fn)] = (fn, self._wrap(key, fn, hooks.get(key),
                                                   namers.get(key), GROUPS.get(key)))
        # rebind every reference held by a ufabound module or its lists
        targets = [mod for name, mod in sys.modules.items()
                   if name == "ufabound" or name.startswith("ufabound.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, attr, replaced[id(obj)][1])
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if id(item) in replaced and replaced[id(item)][0] is item:
                            obj[i] = replaced[id(item)][1]
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = getattr(cls, meth)
            key = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(key, fn, hooks.get(key)))

    # -- summary -----------------------------------------------------------

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer numbers of one round, named as in BENCHMARK.json."""
        c, calls, self_s, outer = self.counters, self.calls, self.self_s, self.outer_s

        def total(*keys):
            return sum(outer[k] for k in keys)

        def ncalls(*keys):
            return sum(calls[k] for k in keys)

        build_s = total("group:witness.build")
        full_cells = c["crossing.full_cells"]
        out = {
            "tables.enumerate_s": total("group:tables.enumerate"),
            "tables.enumerate_count": c["tables.enumerate_count"],
            "tables.haspath_calls": ncalls("tables.haspath"),
            "tables.haspath_s": total("tables.haspath"),
            "tables.predicates_calls": ncalls(*(f"tables.{p}" for p in PREDICATES)),
            "tables.predicates_s": total("group:tables.predicates"),
            "witness.build_s": build_s,
            "witness.build_entries": c["witness.build_entries"],
            "witness.entries_per_s": (c["witness.build_entries"] / build_s
                                      if build_s else 0.0),
            "witness.row_kernel_s": total("witness._row_bits"),
            "witness.save_s": total("witness.save_matrix"),
            "witness.save_bytes": c["witness.save_bytes"],
            "witness.load_s": total("witness.load_matrix"),
            "witness.load_bytes": c["witness.load_bytes"],
            "witness.to_lists_s": total("witness.BoolMatrix.to_lists"),
            "witness.to_lists_cells": c["witness.to_lists_cells"],
            "witness.m_entry_calls": ncalls("witness.m_entry"),
            "witness.m_entry_s": total("witness.m_entry"),
            "witness.build_g_I_calls": ncalls("witness.build_g_I"),
            "witness.build_g_I_s": total("witness.build_g_I"),
            "automata.twonfa_accepts_calls": ncalls("automata.twonfa_accepts"),
            "automata.twonfa_accepts_s": total("automata.twonfa_accepts"),
            "exact_linalg.rank_mod2_s": total("exact_linalg.rank_mod_p[2]"),
            "exact_linalg.rank_mod2_cells": c["exact_linalg.rank_mod2_cells"],
            "exact_linalg.rank_modp_s": total("exact_linalg.rank_mod_p[p]"),
            "exact_linalg.rank_modp_rss_growth_mb": c["exact_linalg.rank_modp_rss_growth_mb"],
            "exact_linalg.rank_modp_bytes_computed": c["exact_linalg.rank_modp_bytes"],
            "exact_linalg.rank_exact_calls": ncalls("exact_linalg.rank_exact"),
            "exact_linalg.rank_exact_cells": c["exact_linalg.rank_exact_cells"],
            "exact_linalg.rank_exact_s": total("exact_linalg.rank_exact"),
            "crossing.schmidt_matrix_s": total("crossing.schmidt_matrix"),
            "crossing.profile_s": total("group:crossing.profile"),
            "crossing.verify_optimality_s": total("crossing.verify_optimality"),
            "crossing.reduced_ratio": (c["crossing.reduced_cells"] / full_cells
                                       if full_cells else 0.0),
            "combinatorics.enumerate_ordered_s":
                total("combinatorics.enumerate_ordered_prefix_tables"),
        }
        for check in VERIFY_CHECKS:
            out[f"verification.{check}_s"] = total(f"verification.{check}")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = (self_s[f"cli.main:{cmd}"]
                                   + self_s[f"cli._cmd_{cmd}"])
        for short in LAYER_MODULES:
            out[f"{short}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[0] == short)
        out["remainder.self_s"] = max(run_s - self.root_s, 0.0)
        return out


# -- per-function hooks: counters measured where the work happens ------------

def _after_enumerate(c, args, kwargs, tables, rss_growth):
    c["tables.enumerate_count"] += len(tables)


def _after_build(c, args, kwargs, m, rss_growth):
    c["witness.build_entries"] += m.rows * m.cols


def _after_save(c, args, kwargs, result, rss_growth):
    path = args[1] if len(args) > 1 else kwargs["path"]
    c["witness.save_bytes"] += _file_bytes(path, path + ".rows", path + ".cols")


def _after_load(c, args, kwargs, result, rss_growth):
    c["witness.load_bytes"] += _file_bytes(args[0] if args else kwargs["path"])


def _after_to_lists(c, args, kwargs, result, rss_growth):
    c["witness.to_lists_cells"] += args[0].rows * args[0].cols


def _rank_mod_p_name(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return "exact_linalg.rank_mod_p[2]" if p == 2 else "exact_linalg.rank_mod_p[p]"


def _after_rank_mod_p(c, args, kwargs, result, rss_growth):
    p = args[1] if len(args) > 1 else kwargs["p"]
    cells = _cells(args[0])
    if p == 2:
        c["exact_linalg.rank_mod2_cells"] += cells
    else:
        c["exact_linalg.rank_modp_bytes"] += cells * 8
        c["exact_linalg.rank_modp_rss_growth_mb"] = max(
            c["exact_linalg.rank_modp_rss_growth_mb"], rss_growth)


def _after_rank_exact(c, args, kwargs, result, rss_growth):
    c["exact_linalg.rank_exact_cells"] += _cells(args[0])


def _after_verify_optimality(c, args, kwargs, report, rss_growth):
    c["crossing.full_cells"] += report.rows * report.cols
    c["crossing.reduced_cells"] += report.reduced_rows * report.reduced_cols


def _cli_main_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    cmd = argv[0] if argv else "none"
    return "cli.main:" + cmd.replace("-", "_")
