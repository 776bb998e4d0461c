"""Counting LAPACK calls and recording spans at the package's layer boundaries.

Both work by replacing functions with wrappers on every name binding: the
package re-exports its functions from ``__init__``, its modules import each
other's functions by name, and a wrapper placed only on the defining module
would miss those calls.  Wrappers do their work only while ``active`` is
set, so the benchmark's own checks are never counted.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter

# factorization entry points of numpy.linalg and scipy.linalg; the package
# uses the numpy ones
LAPACK_NAMES = ("eigh", "eigvalsh", "svd", "qr", "cholesky", "lstsq", "solve", "inv", "ldl")

# one-line helpers called tens of times per op; wrapping them more than
# doubled the traced time, so their time counts to the calling function
UNTRACED = frozenset({"as_tolerance", "as_matrix", "herm_part", "frobenius"})


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy as np
        a = np.asarray(a)
        shape = a.shape
    return shape, getattr(a, "dtype", None)


def computed_flops(name, args, kwargs):
    """Flops of one call, from its matrix shape by the standard operation counts.

    Counts are those of Golub & Van Loan (Matrix Computations, 4th ed.) for
    real arithmetic, times 4 for complex input; stacked inputs multiply by
    the stack size.  They are computed, not measured.
    """
    if not args:
        return 0.0
    shape, dtype = _shape(args[0])
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = 1
    for b in shape[:-2]:
        batch *= b
    k, big = min(m, n), max(m, n)
    if name == "eigh":
        f = 9.0 * n ** 3
    elif name == "eigvalsh":
        f = 4.0 / 3.0 * n ** 3
    elif name == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        if not uv:
            f = 4.0 * big * k ** 2 - 4.0 / 3.0 * k ** 3
        elif full:
            f = 4.0 * big ** 2 * k + 8.0 * big * k ** 2 + 9.0 * k ** 3
        else:
            f = 14.0 * big * k ** 2 + 8.0 * k ** 3
    elif name == "qr":
        f = 4.0 * big * k ** 2 - 4.0 / 3.0 * k ** 3
    elif name in ("cholesky", "ldl"):
        f = n ** 3 / 3.0
    elif name == "solve":
        rhs = _shape(args[1])[0] if len(args) > 1 else ()
        nrhs = rhs[-1] if len(rhs) >= 2 else 1
        f = 2.0 / 3.0 * n ** 3 + 2.0 * n ** 2 * nrhs
    elif name == "inv":
        f = 2.0 * n ** 3
    elif name == "lstsq":
        f = 14.0 * big * k ** 2 + 8.0 * k ** 3
    else:
        f = 0.0
    if dtype is not None and getattr(dtype, "kind", "") == "c":
        f *= 4.0
    return batch * f


def _replace_everywhere(prefixes, replacement_for):
    """Swap functions on every module whose name starts with one of prefixes.

    ``replacement_for(fn)`` returns the wrapper for fn, or None to keep it.
    Returns the list of (module, attribute, original) needed to undo.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(prefixes):
            continue
        for attr, val in list(vars(mod).items()):
            if not callable(val):
                continue
            wrapper = replacement_for(val)
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, val))
    return undo


def _restore(undo):
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


class LapackCounter:
    """Counts factorization calls and their computed flops, by entry point."""

    def __init__(self):
        self.calls = Counter()
        self.flops = 0.0
        self.active = False
        self._undo = []

    def install(self):
        import numpy.linalg
        targets = {}
        for modname in ("numpy.linalg", "scipy.linalg"):
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name in LAPACK_NAMES:
                fn = getattr(mod, name, None)
                if fn is not None and id(fn) not in targets:
                    targets[id(fn)] = self._wrap(name, fn)
        self._undo = _replace_everywhere(
            ("numpy.linalg", "scipy.linalg", "momentschur"),
            lambda fn: targets.get(id(fn)),
        )

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
                self.flops += computed_flops(name, args, kwargs)
            return fn(*args, **kwargs)
        return counted


class Tracer:
    """Times every call of a public package function, as a span.

    A span is (name, parent span, op id, start ns, end ns).  Call counts
    and self time (a span's duration minus the time its child spans cover)
    are summed for every span; the spans themselves are kept in memory only
    while ``record`` is set (the benchmark sets it for the first traced
    round) and are written out by ``write``.  A few boundaries also record
    what they moved: bytes through ``jsonio.loads``/``dumps``, the matrix
    bytes ``block_hankel`` built, and which Theta evaluations were distinct
    within one op.
    """

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_ns = []
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.record = False
        self.counts = Counter()
        self.thetas = set()
        self._undo = []

    def install(self):
        wrappers = {}

        def replacement(fn):
            if not isinstance(fn, types.FunctionType):
                return None
            module = getattr(fn, "__module__", "") or ""
            if not module.startswith("momentschur.") or fn.__name__.startswith("_"):
                return None
            if fn.__name__ in UNTRACED:
                return None
            if id(fn) not in wrappers:
                layer = module.rsplit(".", 1)[1]
                wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
            return wrappers[id(fn)]

        self._undo = _replace_everywhere(("momentschur",), replacement)

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        layer = name.split(".", 1)[0]
        moment_layer = layer in ("hamburger", "stieltjes")
        observe = {
            "hamburger.theta": self._observe_theta,
            "hamburger.block_hankel": self._observe_hankel,
            "jsonio.loads": self._observe_loads,
            "jsonio.dumps": self._observe_dumps,
        }.get(name)
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if moment_layer and parent is not None and parent[3] == "cli":
                self.counts["cli_moment_calls"] += 1
            span = None
            if self.record:
                span = [idx, parent[4] if parent else -1, self.op, 0, 0]
                spans.append(span)
            # frame: start, child ns, name index, layer, span index
            frame = [clock(), 0, idx, layer, len(spans) - 1 if span else -1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[idx] += 1
                self_ns[idx] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if span is not None:
                    span[3], span[4] = frame[0], end
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_theta(self, args, kwargs, result):
        s, n = args[0], args[1]
        blocks = getattr(s, "blocks", s)
        tol = args[2] if len(args) > 2 else kwargs.get("tol")
        key = (self.op, n, repr(tol), b"".join(blocks[j].tobytes() for j in range(2 * n)))
        self.thetas.add(key)

    def _observe_hankel(self, args, kwargs, result):
        self.counts["block_hankel_bytes"] += result.nbytes

    def _observe_loads(self, args, kwargs, result):
        self.counts["jsonio_bytes_in"] += len(args[0].encode("utf-8"))

    def _observe_dumps(self, args, kwargs, result):
        self.counts["jsonio_bytes_out"] += len(result.encode("utf-8"))

    def call_counts(self):
        return Counter(dict(zip(self.names, self.calls)))

    def layer_self_ns(self):
        out = Counter()
        for name, ns in zip(self.names, self.self_ns):
            out[name.split(".", 1)[0]] += ns
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for i, (idx, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{self.names[idx]},{t0},{t1}\n")
