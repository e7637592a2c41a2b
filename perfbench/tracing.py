"""Layer spans and counters for the traced run, installed from outside.

The tracer wraps the public functions and methods of each hopfspan
module, plus the constructors whose counts the benchmark reports, and
puts each wrapper into every namespace that bound the original: the
defining module, every module that did ``from .x import y``, and every
class attribute that aliases it (``VMorphism.__mul__`` is ``compose``).
Without that, calls through the other names would silently escape.

A call opens a span only when it crosses into another layer; a call that
stays inside the caller's layer is counted and otherwise left alone, so
its time stays with the enclosing span of that layer.  A layer's self
time is its spans' time minus the time its child spans cover, and a
child covers its whole wrapper, so bookkeeping is charged to no layer.
Work done under a span without a wrapper of its own (``fractions``
arithmetic, private helpers such as ``_solve_unique`` and ``cli._det``)
is charged to that span.
"""

import array
import gzip
import inspect
import sys
import time

LAYERS = ("cli", "hopf_structures", "monoidale_duoidal", "spanv_core",
          "finset_span", "vect_backend", "cat_backend")

# Methods left alone: they only format or guard, and are not work.
UNWRAPPED = ("__repr__", "__str__", "__setattr__", "__delattr__")

# Constructors record spans like public methods.  Other dunder methods
# and property getters are accessors, called millions of times
# (FinFn.__call__ alone 7.9M times in one five-object check): they open a
# frame, so their time still moves to their own layer, but record no span.
CONSTRUCTORS = ("__init__", "__post_init__")

# Functions whose inclusive time is reported on its own.
INCLUSIVE = {
    "cli.load_path": "cli.load_s",
    "hopf_structures.check_monad": "hopf_structures.check_monad_s",
    "hopf_structures.check_opmonoidal": "hopf_structures.check_opmonoidal_s",
    "hopf_structures.is_hopf": "hopf_structures.is_hopf_s",
    "hopf_structures.compute_antipode": "hopf_structures.compute_antipode_s",
    "hopf_structures.check_antipode_group": "hopf_structures.check_antipode_s",
    "hopf_structures.check_antipode_enriched":
        "hopf_structures.check_antipode_s",
    "hopf_structures.check_antipode_duoidal":
        "hopf_structures.check_antipode_duoidal_s",
    "hopf_structures.image_polyad_report":
        "hopf_structures.image_polyad_report_s",
    "hopf_structures.polyad_is_hopf": "hopf_structures.polyad_is_hopf_s",
    "hopf_structures.em_algebras_restricted":
        "hopf_structures.em_algebras_restricted_s",
    "monoidale_duoidal.check_frobenius": "monoidale_duoidal.check_frobenius_s",
    "spanv_core.invert_cell2": "spanv_core.invert_cell2_s",
    "vect_backend.invert": "vect_backend.invert_s",
}

# Call counts reported, each the sum of the listed wrapped names.
COUNTS = {
    "cli.calls": ("cli.main",),
    "hopf_structures.monad_cells_calls": ("hopf_structures.monad_cells",),
    "hopf_structures.fusion_builds": ("hopf_structures.left_fusion",
                                      "hopf_structures.right_fusion"),
    "monoidale_duoidal.induced_monoidale_calls":
        ("monoidale_duoidal.induced_monoidale",),
    "monoidale_duoidal.star2_calls": ("monoidale_duoidal.star2",),
    "spanv_core.cell2_built": ("spanv_core.Cell2.__post_init__",),
    "spanv_core.coherence_cells_built": (
        "spanv_core.relabel_cell2", "spanv_core.associator_cell2",
        "spanv_core.tensor_associator_cell2", "spanv_core.left_unitor_cell2",
        "spanv_core.right_unitor_cell2", "spanv_core.interchange_cell2"),
    "spanv_core.hcomp_calls": ("spanv_core.hcomp1", "spanv_core.hcomp2"),
    "spanv_core.vcomp2_calls": ("spanv_core.vcomp2",),
    "spanv_core.eq2_calls": ("spanv_core.eq2",),
    "spanv_core.invert_cell2_calls": ("spanv_core.invert_cell2",),
    "finset_span.compose_spans_calls": ("finset_span.compose_spans",),
    "finset_span.finfn_built": ("finset_span.FinFn.__post_init__",),
    "vect_backend.compose_calls": ("vect_backend.VMorphism.compose",),
    "vect_backend.tensor_mor_calls": ("vect_backend.tensor_mor",),
    "vect_backend.invert_calls": ("vect_backend.invert",),
    "vect_backend.vmorphism_built": ("vect_backend.VMorphism.__init__",),
    "cat_backend.functor_built": ("cat_backend.FunctorData.__post_init__",),
    "cat_backend.nat_built": ("cat_backend.NatTransData.__post_init__",),
    "cat_backend.category_compose_calls": ("cat_backend.FinCategory.compose",),
    "cat_backend.check_category_calls": ("cat_backend.check_category",),
}


def _function_of(member):
    """The plain function behind a class attribute, or None."""
    if isinstance(member, property):
        member = member.fget
    member = getattr(member, "__func__", member)
    return member if inspect.isfunction(member) else None


def _rebind(member, wrapper):
    """wrapper dressed as member was: static, class method or property."""
    if isinstance(member, staticmethod):
        return staticmethod(wrapper)
    if isinstance(member, classmethod):
        return classmethod(wrapper)
    if isinstance(member, property):
        return property(wrapper, member.fset, member.fdel, member.__doc__)
    return wrapper


def _is_accessor(attr, member):
    return isinstance(member, property) or (attr.startswith("__")
                                            and attr not in CONSTRUCTORS)


def _nonzero_rows(entries):
    return [sum(1 for e in row if e != 0) for row in entries]


def _nonzero_cols(entries):
    return [sum(1 for e in col if e != 0) for col in zip(*entries)]


def _is_monomial(entries):
    return (all(n == 1 for n in _nonzero_rows(entries))
            and all(n == 1 for n in _nonzero_cols(entries)))


class Tracer:
    """Installs the wrappers, records spans and counters, and removes the
    wrappers again.  item is the id stamped on spans opened from now on."""

    def __init__(self, modules):
        self.modules = modules
        self.item = 0
        self.names = []
        self.calls = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = {}
        self.active = set()
        self.stats = {"pullback_apex_total": 0, "compose_madds": 0,
                      "compose_useful": 0, "tensor_entries": 0,
                      "invert_max_dim": 0, "invert_monomial": 0,
                      "max_dim": 0}
        # One root frame: [layer, time covered by child spans, span index].
        self.stack = [[None, 0.0, -1]]
        # Spans as parallel arrays: name index, item, parent, start, end.
        self.span_name = array.array("H")
        self.span_item = array.array("I")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._patched = []
        self.bias = [0.0, 0.0, 0.0]
        self.bias[:] = self._calibrate()

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(qualified name, layer, function, accessor) for every wrapped
        callable: public functions, and every method and property getter
        of the module's classes."""
        for layer in LAYERS:
            module = self.modules[layer]
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    yield "%s.%s" % (layer, name), layer, value, False
                if (inspect.isclass(value)
                        and value.__module__ == module.__name__):
                    for attr, member in vars(value).items():
                        func = _function_of(member)
                        if func is not None and attr not in UNWRAPPED:
                            yield ("%s.%s.%s" % (layer, name, attr), layer,
                                   func, _is_accessor(attr, member))

    def install(self):
        wrappers = {}
        for qualname, layer, func, accessor in self._targets():
            if func not in wrappers:
                wrappers[func] = self._wrap(qualname, layer, func, accessor)
        namespaces = [m for name, m in sys.modules.items()
                      if name.split(".")[0] == "hopfspan"]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, value, wrappers[value])
                if (inspect.isclass(value)
                        and value.__module__ == module.__name__):
                    for attr, member in list(vars(value).items()):
                        func = _function_of(member)
                        if func in wrappers:
                            self._patch(value, attr, member,
                                        _rebind(member, wrappers[func]))

    def _patch(self, owner, name, old, new):
        setattr(owner, name, new)
        self._patched.append((owner, name, old))

    def uninstall(self):
        for owner, name, old in reversed(self._patched):
            setattr(owner, name, old)
        self._patched.clear()

    def _calibrate(self, rounds=20000, repeats=7):
        """The wrapper's own cost, from a function that does nothing:
        what falls inside a span, what a boundary call costs its caller
        outside the child span, and what a same-layer call costs, each
        less the cost of calling the function unwrapped, which is real
        work.  Each is taken off the self time it would otherwise
        inflate.  Every loop is timed repeats times and the least time
        kept, since a stray interruption can only add time."""
        clock = time.perf_counter
        noop = lambda: None  # noqa: E731
        probe = self._wrap("calibration.probe", "calibration", noop, False)
        root = self.stack[0]
        best = [float("inf")] * 4

        def loop(func):
            start = clock()
            for _ in range(rounds):
                func()
            return clock() - start

        for _ in range(repeats):
            self.self_s["calibration"] = 0.0
            raw = loop(noop)
            boundary = loop(probe)
            inner = self.self_s.pop("calibration")
            covered, root[1] = root[1], 0.0
            self.stack.append(["calibration", 0.0, -1])
            quick = loop(probe)
            self.stack.pop()
            for i, value in enumerate((raw, boundary - covered, inner,
                                       quick)):
                best[i] = min(best[i], value)
        del self.calls["calibration.probe"]
        del self.span_name[:], self.span_item[:], self.span_parent[:]
        del self.span_start[:], self.span_end[:]
        self.names.pop()
        raw, outside, inner, quick = best
        return ((inner - raw) / rounds, (outside - raw) / rounds,
                (quick - raw) / rounds)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, qualname, layer, func, accessor):
        name_index = len(self.names)
        self.names.append(qualname)
        self.calls[qualname] = 0
        inclusive = INCLUSIVE.get(qualname)
        after = self._after.get(qualname)
        calls, stack, self_s = self.calls, self.stack, self.self_s
        active, totals, bias = self.active, self.inclusive, self.bias
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[qualname] += 1
            parent = stack[-1]
            boundary = parent[0] != layer
            if not boundary and inclusive is None and after is None:
                parent[1] += bias[2]
                return func(*args, **kwargs)
            enter = clock()
            span = (self._open(name_index, parent[2])
                    if boundary and not accessor else parent[2])
            frame = [layer, 0.0, span]
            stack.append(frame)
            outermost = inclusive is not None and qualname not in active
            if outermost:
                active.add(qualname)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    active.discard(qualname)
                    totals[inclusive] = (totals.get(inclusive, 0.0)
                                         + (end - start))
                if boundary:
                    self_s[layer] += (end - start) - frame[1] - bias[0]
                    if not accessor:
                        self.span_start[span] = start
                        self.span_end[span] = end
            if after is not None:
                after(self, args, result)
            covered = clock() - enter
            if not boundary:
                # A same-layer call timed only for its own figures keeps
                # its work in the enclosing span.
                covered -= (end - start) - frame[1]
            parent[1] += covered + bias[1]
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def _open(self, name_index, parent):
        self.span_name.append(name_index)
        self.span_item.append(self.item)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_start) - 1

    # -- per-call statistics, computed outside every span --------------------

    def _compose_stats(self, args, result):
        left, right = args
        st = self.stats
        st["compose_madds"] += left.cod.dim * left.dom.dim * right.dom.dim
        cols = _nonzero_cols(left.entries)
        rows = _nonzero_rows(right.entries)
        st["compose_useful"] += sum(a * b for a, b in zip(cols, rows))

    def _tensor_stats(self, args, result):
        self.stats["tensor_entries"] += result.cod.dim * result.dom.dim

    def _invert_stats(self, args, result):
        (f,) = args
        st = self.stats
        st["invert_max_dim"] = max(st["invert_max_dim"], f.dom.dim,
                                   f.cod.dim)
        if f.dom.dim == f.cod.dim and _is_monomial(f.entries):
            st["invert_monomial"] += 1

    def _vmorphism_stats(self, args, result):
        vm = args[0]
        st = self.stats
        st["max_dim"] = max(st["max_dim"], vm.dom.dim, vm.cod.dim)

    def _compose_spans_stats(self, args, result):
        self.stats["pullback_apex_total"] += len(result.apex)

    _after = {
        "vect_backend.VMorphism.compose": _compose_stats,
        "vect_backend.tensor_mor": _tensor_stats,
        "vect_backend.invert": _invert_stats,
        "vect_backend.VMorphism.__init__": _vmorphism_stats,
        "finset_span.compose_spans": _compose_spans_stats,
    }

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer figure except the overhead, which needs the
        untraced run."""
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = (self.self_s[layer], "s")
        for name in sorted(set(INCLUSIVE.values())):
            out[name] = (self.inclusive.get(name, 0.0), "s")
        for metric, names in COUNTS.items():
            out[metric] = (sum(self.calls.get(n, 0) for n in names), "count")
        st = self.stats
        madds = st["compose_madds"]
        inverts = out["vect_backend.invert_calls"][0]
        out["finset_span.pullback_apex_total"] = (st["pullback_apex_total"],
                                                  "count")
        out["vect_backend.compose_madds"] = (madds, "count")
        out["vect_backend.compose_useful_ratio"] = (
            st["compose_useful"] / madds if madds else 0.0, "ratio")
        out["vect_backend.tensor_entries"] = (st["tensor_entries"], "count")
        out["vect_backend.invert_max_dim"] = (st["invert_max_dim"], "count")
        out["vect_backend.invert_monomial_frac"] = (
            st["invert_monomial"] / inverts if inverts else 0.0, "ratio")
        out["vect_backend.max_dim"] = (st["max_dim"], "count")
        return out

    def self_time_table(self):
        total = sum(self.self_s.values())
        return [(layer, self.self_s[layer],
                 self.self_s[layer] / total if total else 0.0)
                for layer in sorted(LAYERS, key=self.self_s.get,
                                    reverse=True)]

    def write_spans(self, path, item_ids):
        """One tab-separated line per span: id, parent, item, name, start
        and end in seconds."""
        with gzip.open(path, "wt") as out:
            out.write("span\tparent\titem\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                out.write("%d\t%d\t%s\t%s\t%.9f\t%.9f\n" % (
                    i, self.span_parent[i], item_ids[self.span_item[i]],
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i]))
