"""Per-layer tracing for the cga benchmark, done from outside the library.

``Tracer.install`` replaces each traced function at every name it is looked
up under inside the ``cga`` package (a function imported with
``from .x import f`` is bound once per importing module, so each binding is
patched), and ``Tracer.restore`` puts the originals back.

Calls at step level and above keep one span each: ``[name, parent, start,
end, attrs]``, with ``attrs`` taken from the return value.  High-frequency
calls (oracle canonicalization, ``is_trivial``, L-membership) are only
counted and timed, per parent span, and only at their outermost level.
``layer_metrics`` turns spans and counts into the per-layer numbers.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

LANGOPS = ("intersect", "pad_lift", "preimage", "image", "trim", "swap_rows")

# (module, attribute, span name): module-level functions kept as spans
SPAN_FUNCTIONS = [
    ("cga.gastructure", "multiplier_graph_search", "gastructure.search"),
    ("cga.gastructure", "multiplier_enumerative_search", "gastructure.enum"),
    ("cga.gastructure", "accepted_candidates", "gastructure.candidates"),
    ("cga.gastructure", "verify", "gastructure.verify"),
    ("cga.shortlex", "geodesic_length", "shortlex.geodesic"),
    ("cga.shortlex", "geodesic_normal_form", "shortlex.geodesic"),
    ("cga.groups", "structure_from_expr", "groups.build"),
    ("cga.groups", "oracle_from_expr", "groups.oracle_build"),
    ("cga.formats", "load_structure", "formats.load"),
    ("cga.formats", "load_automaton", "formats.load"),
    ("cga.formats", "write_structure", "formats.write"),
] + [("cga.langops", fn, f"langops.{fn}") for fn in LANGOPS]

# (module, class, method, name, kind)
METHODS = [
    ("cga.gastructure", "GraphAutomaticStructure", "step_normal_form",
     "gastructure.step", "span"),
    ("cga.automata", "CounterAutomaton", "accepts_word",
     "automata.membership", "count"),
    ("cga.groups", "GroupOracle", "is_trivial", "groups.is_trivial", "count"),
]
ORACLE_CLASSES = ("FreeGroupOracle", "BSOracle", "ProductOracle",
                  "FreeProductOracle", "RegenOracle")

PER_LAYER = [
    "gastructure.search_calls", "gastructure.search_s", "gastructure.levels",
    "gastructure.S_sum", "gastructure.S_max", "gastructure.T_sum",
    "gastructure.c_max", "gastructure.S_bound_use", "gastructure.bound_breaks",
    "gastructure.step_calls", "gastructure.step_self_s",
    "gastructure.step_repeat_share",
    "gastructure.enum_calls", "gastructure.enum_s",
    "gastructure.candidates_calls", "gastructure.candidates_s",
    "gastructure.verify_bfs_s", "gastructure.verify_multiplier_s",
    "gastructure.verify_quasigeodesic_s",
    "automata.membership_calls", "automata.membership_s",
    "groups.build_s", "groups.oracle_build_s",
    "groups.canonicalize_calls", "groups.canonicalize_s",
    "shortlex.geodesic_calls", "shortlex.geodesic_s", "shortlex.candidates",
] + [f"langops.{fn}_{part}" for fn in LANGOPS for part in ("calls", "s")] + [
    "langops.states_out", "langops.transitions_out",
    "formats.write_s", "formats.load_s", "formats.bytes_written",
    "cli.self_s", "cli.process_s",
    "workload.inter_nf_len_p50", "workload.inter_nf_len_max",
    "workload.cold_share", "workload.failed_frac",
    "gc.full_collections", "gc.full_s",
    "trace.overhead_frac",
]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share", "_use")):
        return "ratio"
    if name == "formats.bytes_written":
        return "bytes"
    if name.startswith("workload.inter_nf_len"):
        return "symbols"
    return "count"

# root spans that stand for one benchmark op
OP_ROOTS = ("bench.op", "cli.main")
# layers whose time is closure building: machine algebra and .aut files
CLOSURE_LAYERS = ("langops", "formats")

# metrics merged across traces by max rather than by sum
MAX_METRICS = {"gastructure.S_max", "gastructure.c_max",
               "gastructure.S_bound_use", "workload.inter_nf_len_max"}


def _dir_bytes(directory):
    total = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            total += os.path.getsize(path)
    return total


class Tracer:
    """Spans and per-parent counts of one traced process."""

    def __init__(self):
        self.spans = []      # [name, parent index, start, end, attrs]
        self.stack = []      # indices of open spans
        self.counts = {}     # (parent index, name) -> [calls, seconds]
        self._active = {}    # count name -> nesting depth, for outermost-only
        self._patches = []   # (owner, attribute, original)
        self._machines = {}  # id(machine) -> (machine, D, F, k)
        self._seen_steps = set()
        self._structures = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        counts, stack, active = self.counts, self.stack, self._active
        active.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] = 0
                key = (stack[-1] if stack else None, name)
                entry = counts.get(key)
                if entry is None:
                    counts[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- return-value attributes -------------------------------------------

    def _search_attrs(self, args, result):
        machine = args[0]
        known = self._machines.get(id(machine))
        if known is None:
            growth = 3 * max(machine.epsilon_bound(), 1) \
                * machine.max_transition_delta()
            known = (machine, len(machine.states), growth, machine.counters)
            self._machines[id(machine)] = known
        _, states, growth, counters = known
        return [states, growth, counters, [list(row) for row in result[1]]]

    def _step_attrs(self, args, result):
        structure, u, x = args[0], tuple(args[1]), args[2]
        self._structures[id(structure)] = structure
        key = (id(structure), u, x)
        repeat = key in self._seen_steps
        self._seen_steps.add(key)
        return [len(result), repeat]

    @staticmethod
    def _machine_attrs(args, result):
        return [len(result.states), len(result.transitions)]

    @staticmethod
    def _write_attrs(args, result):
        return [_dir_bytes(args[1])]

    # -- install / restore --------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cga"
                                      or mod_name.startswith("cga.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced name; importing the cga modules first."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import cga.cli  # noqa: F401  (binds every module the CLI looks up)

        attrs = {"gastructure.search": self._search_attrs,
                 "formats.write": self._write_attrs}
        for fn in LANGOPS:
            attrs[f"langops.{fn}"] = self._machine_attrs
        for mod_name, attr, name in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(
                original, self.span(name, original, attrs.get(name)))

        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            if kind == "span":
                wrapper = self.span(name, original, self._step_attrs)
            else:
                wrapper = self.count(name, original)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)

        groups = sys.modules["cga.groups"]
        for cls_name in ORACLE_CLASSES:
            cls = getattr(groups, cls_name)
            original = vars(cls)["canonicalize"]
            # one nesting flag for all oracles: RegenOracle and the product
            # oracles call their factors' canonicalize
            wrapper = self.count("groups.canonicalize", original)
            self._patches.append((cls, "canonicalize", original))
            setattr(cls, "canonicalize", wrapper)
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def op(self, label, fn, *args):
        """Run one benchmark op under a root span."""
        return self.span(f"bench.op {label}", fn)(*args)

    def dump(self):
        return {"spans": self.spans,
                "counts": [[parent, name, calls, seconds]
                           for (parent, name), (calls, seconds)
                           in self.counts.items()]}


# ---------------------------------------------------------------------------
# per-layer numbers


def layer_metrics(dump):
    """Per-layer metrics of one dumped trace (see ``Tracer.dump``)."""
    spans = dump["spans"]
    counts = dump["counts"]
    m = dict.fromkeys(PER_LAYER, 0)

    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            children[parent].append(i)
    for parent, name, calls, seconds in counts:
        if parent is not None:
            child_time[parent] += seconds

    def layer(index):
        return spans[index][0].split(".", 1)[0]

    def outermost(index):
        parent = spans[index][1]
        return parent is None or layer(parent) != layer(index)

    root_of = []
    for i, rec in enumerate(spans):
        root_of.append(i if rec[1] is None else root_of[rec[1]])
    op_nf_len = {}

    breaks = 0
    repeats = 0
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        took = end - start
        if name == "gastructure.search":
            m["gastructure.search_calls"] += 1
            m["gastructure.search_s"] += took
            if attrs is None:
                continue
            states, growth, counters, rows = attrs
            m["gastructure.levels"] += len(rows) - 1
            for j, size, edges, cmax in rows:
                bound = 2 * states * (2 * growth * j + 1) ** counters
                m["gastructure.S_sum"] += size
                m["gastructure.T_sum"] += edges
                m["gastructure.S_max"] = max(m["gastructure.S_max"], size)
                m["gastructure.c_max"] = max(m["gastructure.c_max"], cmax)
                m["gastructure.S_bound_use"] = max(
                    m["gastructure.S_bound_use"], size / bound)
                if size > bound or cmax > growth * j:
                    breaks += 1
        elif name == "gastructure.step":
            m["gastructure.step_calls"] += 1
            m["gastructure.step_self_s"] += took - child_time[i]
            if attrs is not None:
                out_len, repeat = attrs
                repeats += repeat
                root = root_of[i]
                if spans[root][0].startswith(OP_ROOTS):
                    op_nf_len[root] = max(op_nf_len.get(root, 0), out_len)
        elif name == "gastructure.enum":
            m["gastructure.enum_calls"] += 1
            m["gastructure.enum_s"] += took
        elif name == "gastructure.candidates":
            m["gastructure.candidates_calls"] += 1
            m["gastructure.candidates_s"] += took
        elif name == "gastructure.verify":
            bfs, mult, quasi = _verify_phases(spans, i, children[i])
            m["gastructure.verify_bfs_s"] += bfs
            m["gastructure.verify_multiplier_s"] += mult
            m["gastructure.verify_quasigeodesic_s"] += quasi
        elif name == "groups.build" and outermost(i):
            m["groups.build_s"] += took
        elif name == "groups.oracle_build" and outermost(i):
            m["groups.oracle_build_s"] += took
        elif name == "shortlex.geodesic" and outermost(i):
            m["shortlex.geodesic_calls"] += 1
            m["shortlex.geodesic_s"] += took
        elif name.startswith("langops."):
            fn = name.split(".", 1)[1]
            m[f"langops.{fn}_calls"] += 1
            m[f"langops.{fn}_s"] += took
            if outermost(i) and attrs is not None:
                m["langops.states_out"] += attrs[0]
                m["langops.transitions_out"] += attrs[1]
        elif name == "formats.write":
            m["formats.write_s"] += took
            if attrs is not None:
                m["formats.bytes_written"] += attrs[0]
        elif name == "formats.load" and outermost(i):
            m["formats.load_s"] += took
        elif name == "cli.main":
            m["cli.self_s"] += took - child_time[i]

    for parent, name, calls, seconds in counts:
        if name == "automata.membership":
            m["automata.membership_calls"] += calls
            m["automata.membership_s"] += seconds
        elif name == "groups.canonicalize":
            m["groups.canonicalize_calls"] += calls
            m["groups.canonicalize_s"] += seconds
        elif (name == "groups.is_trivial" and parent is not None
              and layer(parent) == "shortlex"):
            m["shortlex.candidates"] += calls

    m["gastructure.bound_breaks"] = breaks
    # kept as a count here; merge() turns it into a share
    m["gastructure.step_repeat_share"] = repeats
    lengths = sorted(op_nf_len.values())
    m["workload.inter_nf_len_max"] = lengths[-1] if lengths else 0
    m["_nf_lens"] = lengths
    return m


def closure_shares(dump):
    """For each op root span, in order, the share of its time spent in
    closure building (outermost langops and formats spans under it)."""
    spans = dump["spans"]
    root_of = []
    closure = {}
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        root_of.append(i if parent is None else root_of[parent])
        layer = name.split(".", 1)[0]
        if layer in CLOSURE_LAYERS and (
                parent is None
                or spans[parent][0].split(".", 1)[0] not in CLOSURE_LAYERS):
            closure[root_of[i]] = closure.get(root_of[i], 0.0) + end - start
    return [closure.get(i, 0.0) / (end - start)
            for i, (name, parent, start, end, attrs) in enumerate(spans)
            if parent is None and name.startswith(OP_ROOTS)]


def _verify_phases(spans, index, children):
    """BFS until the first multiplier check, multiplier checks until the
    first geodesic re-enumeration, the quasigeodesic check to the end."""
    start, end = spans[index][2], spans[index][3]
    cand = [spans[c][2] for c in children
            if spans[c][0] == "gastructure.candidates"]
    geo = [spans[c][2] for c in children if spans[c][0] == "shortlex.geodesic"]
    first_cand = min(cand) if cand else None
    first_geo = min(geo) if geo else None
    bfs_end = min(t for t in (first_cand, first_geo, end) if t is not None)
    mult = ((first_geo if first_geo is not None else end) - first_cand
            if first_cand is not None else 0.0)
    quasi = end - first_geo if first_geo is not None else 0.0
    return bfs_end - start, mult, quasi


def merge(parts):
    """Combine the layer metrics of several traces (one per child process)."""
    total = dict.fromkeys(PER_LAYER, 0)
    lengths = []
    for part in parts:
        for key in PER_LAYER:
            if key in MAX_METRICS:
                total[key] = max(total[key], part[key])
            else:
                total[key] += part[key]
        lengths.extend(part["_nf_lens"])
    steps = total["gastructure.step_calls"]
    total["gastructure.step_repeat_share"] = (
        total["gastructure.step_repeat_share"] / steps if steps else 0.0)
    total["workload.inter_nf_len_p50"] = (
        statistics.median(lengths) if lengths else 0)
    return total
