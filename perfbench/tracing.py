"""Opt-in span tracing of the program's layers, from the benchmark's own files.

``Tracer.installed()`` replaces the public functions listed in TARGETS by
wrappers in every ``assoc2`` module that holds a reference to them (and
``Matrix.rref`` on the class), and restores the originals on exit.  Nothing
under ``src/`` changes.  A wrapper records one span per call: name, start,
end, parent span and the op it belongs to.  Attributes that cost time to
compute (matrix nnz, kernel bit lengths) are computed after the span ends,
and that time is subtracted from every enclosing span, so the bookkeeping
does not show up as layer time.

``layer_metrics`` turns one round's spans into the per-layer metrics listed
in BENCHMARK.json.  A layer's time is the summed duration of its outermost
spans (a span nested in one of the same name is not counted twice); its
self time subtracts the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter


def _d2_shape(args, mats):
    d2 = mats.d2
    return {"cells": d2.rows * d2.cols, "nnz": sum(1 for row in d2.entries for x in row if x != 0)}


def _kernel_bits(args, sub):
    bits = 0
    for v in sub.basis:
        for x in v:
            if x != 0:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {"bits": bits}


def _rref_cells(args, result):
    m = args[0]
    return {"cells": m.rows * m.cols}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _reps_kept(args, res):
    return {"kept": len(res.representatives)}


# (module, function, span name, attribute extractor)
TARGETS = [
    ("exactlin", "kernel_basis", "exactlin.kernel", _kernel_bits),
    ("exactlin", "rank", "exactlin.rank", None),
    ("exactlin", "solve", "exactlin.solve", None),
    ("cohom2", "assemble_matrices", "cohom2.assemble", _d2_shape),
    ("cohom2", "d1_apply", "cohom2.d1_apply", None),
    ("cohom2", "d2_residual", "cohom2.d2_residual", None),
    ("cohom2", "second_cohomology", "cohom2.h2", _reps_kept),
    ("cohom2", "is_coboundary", "cohom2.reduce", None),
    ("ext2", "check_equivalence", "ext2.equiv", None),
    ("ext2", "extract_representation", "ext2.extract", None),
    ("ext2", "extract_cocycle", "ext2.extract", None),
    ("algebra2", "check_algebra", "algebra2.check", None),
    ("algebra2", "check_homomorphism", "algebra2.hom_check", None),
    ("rep2", "check_representation", "rep2.check", None),
    ("deform2", "check_generates", "deform2.generates", None),
    ("xmod", "xmod_assemble_matrices", "xmod.assemble", _d2_shape),
    ("xmod", "xmod_d1_apply", "xmod.d1_apply", None),
    ("xmod", "xmod_d2_residual", "xmod.d2_residual", None),
    ("xmod", "xmod_second_cohomology", "xmod.h2", _reps_kept),
    ("xmod", "xmod_is_coboundary", "xmod.reduce", None),
    ("xmod", "xmod_check_equivalence", "xmod.equiv", None),
    ("xmod", "check_crossed_module", "xmod.check", None),
    ("xmod", "check_xmod_representation", "xmod.check", None),
    ("xmod", "check_xmod_extension", "xmod.check", None),
    ("cli", "_read", "fileio.load", _file_bytes),
]
FILEIO_PREFIXES = (("load_", "fileio.load"), ("dump_", "fileio.dump"))

# functions whose wrappers a smoke run must see fire, and span names it must see
REQUIRED_CALLS = {f"assoc2.{m}.{f}" for m, f, _, _ in TARGETS} | {"assoc2.exactlin.Matrix.rref"}
REQUIRED_SPANS = {"fileio.load", "fileio.dump", "cli.main"}

# span fields
NAME, START, END, PARENT, OP, ATTRS, EXCL = range(7)


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, op, attrs, excluded]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.active = False
        self.called: set[str] = set()  # qualified names of the traced functions that ran

    def call(self, name, fn, *args, post=None, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self.called.add(f"{fn.__module__}.{fn.__qualname__}")
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, None, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self.stack.pop()
        if post is not None:
            t0 = perf_counter()
            span[ATTRS] = post(args, result)
            spent = perf_counter() - t0
            for i in self.stack:
                self.spans[i][EXCL] += spent
        return result

    def wrap(self, name, fn, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, post=post, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        import assoc2.fileio as fileio
        from assoc2.exactlin import Matrix

        targets = [(sys.modules[f"assoc2.{m}"], f, n, p) for m, f, n, p in TARGETS]
        for attr in dir(fileio):
            for prefix, name in FILEIO_PREFIXES:
                if attr.startswith(prefix):
                    targets.append((fileio, attr, name, None))
        modules = [m for k, m in sys.modules.items() if k == "assoc2" or k.startswith("assoc2.")]
        saved = []
        for mod, attr, name, post in targets:
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        saved.append((m, key, value))
                        setattr(m, key, wrapper)
        rref = Matrix.rref
        Matrix.rref = self.wrap("exactlin.rref", rref, _rref_cells)
        try:
            yield self
        finally:
            Matrix.rref = rref
            for m, key, value in reversed(saved):
                setattr(m, key, value)


def _duration(span):
    return span[END] - span[START] - span[EXCL]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round's spans (times in s, counts per round)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def nested_in_same(i):
        name, p = spans[i][NAME], spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(name):
        return sum(_duration(spans[i]) for i in of(name) if not nested_in_same(i))

    def self_time(name):
        return sum(
            _duration(spans[i]) - sum(_duration(spans[c]) for c in children.get(i, ()))
            for i in of(name)
        )

    def count(name):
        return len(of(name))

    def attrs(name, key):
        return [spans[i][ATTRS][key] for i in of(name) if spans[i][ATTRS]]

    def attr_max(name, key):
        return max(attrs(name, key), default=0)

    def attr_sum(name, key):
        return sum(attrs(name, key))

    def unread(assemble, callers):
        return sum(1 for i in of(assemble) if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] in callers)

    def reps(h2):
        """The representative loop: everything after rank(d1), the first rank
        call of the H2 routine, and the rank calls it makes."""
        seconds, calls, kept = 0.0, 0, 0
        for i in of(h2):
            ranks = [c for c in children.get(i, ()) if spans[c][NAME] == "exactlin.rank"]
            if ranks:
                seconds += spans[i][END] - spans[ranks[0]][END]
                calls += len(ranks) - 1
            kept += spans[i][ATTRS]["kept"]
        return seconds, calls, kept

    reps_s, reps_calls, reps_kept = reps("cohom2.h2")
    xreps_s, _, _ = reps("xmod.h2")
    return {
        "cohom2.assemble_s": total("cohom2.assemble"),
        "cohom2.assemble_self_s": self_time("cohom2.assemble"),
        "cohom2.d1_apply_s": total("cohom2.d1_apply"),
        "cohom2.d1_apply_calls": count("cohom2.d1_apply"),
        "cohom2.d2_residual_s": total("cohom2.d2_residual"),
        "cohom2.d2_residual_calls": count("cohom2.d2_residual"),
        "cohom2.d2_unread": unread("cohom2.assemble", ("cohom2.reduce", "ext2.equiv")),
        "cohom2.d2_cells": attr_max("cohom2.assemble", "cells"),
        "cohom2.d2_nnz": attr_max("cohom2.assemble", "nnz"),
        "cohom2.reps_s": reps_s,
        "cohom2.reps_rank_calls": reps_calls,
        "cohom2.reps_per_rank_call": reps_kept / reps_calls if reps_calls else 0.0,
        "exactlin.kernel_s": total("exactlin.kernel"),
        "exactlin.kernel_bits_max": attr_max("exactlin.kernel", "bits"),
        "exactlin.rref_s": total("exactlin.rref"),
        "exactlin.rref_calls": count("exactlin.rref"),
        "exactlin.rref_cells": attr_sum("exactlin.rref", "cells"),
        "exactlin.rank_s": total("exactlin.rank"),
        "exactlin.rank_calls": count("exactlin.rank"),
        "exactlin.solve_s": total("exactlin.solve"),
        "ext2.extract_s": total("ext2.extract"),
        "ext2.equiv_s": total("ext2.equiv"),
        "algebra2.hom_check_s": total("algebra2.hom_check"),
        "algebra2.check_s": total("algebra2.check"),
        "algebra2.check_calls": count("algebra2.check"),
        "rep2.check_s": total("rep2.check"),
        "rep2.check_calls": count("rep2.check"),
        "deform2.generates_s": total("deform2.generates"),
        "fileio.load_s": total("fileio.load"),
        "fileio.dump_s": total("fileio.dump"),
        "fileio.bytes_in": attr_sum("fileio.load", "bytes"),
        "cli.bytes_out": attr_sum("cli.main", "bytes"),
        "cli.self_s": self_time("cli.main"),
        "xmod.assemble_s": total("xmod.assemble"),
        "xmod.d2_residual_calls": count("xmod.d2_residual"),
        "xmod.d2_nnz": attr_max("xmod.assemble", "nnz"),
        "xmod.d2_unread": unread("xmod.assemble", ("xmod.reduce", "xmod.equiv")),
        "xmod.h2_s": total("xmod.h2"),
        "xmod.reps_s": xreps_s,
        "xmod.reduce_s": total("xmod.reduce"),
        "xmod.check_s": total("xmod.check"),
    }
