"""Per-layer tracing from outside the library.

The tracer wraps the public functions of the traced cauchylab modules and
patches each wrapper into every namespace that holds the original function:
``from .cauchy import related_cauchy_values`` binds the name inside
``factorization`` too, so patching ``cauchy`` alone would miss those calls.
Two hot methods are only counted, not timed: ``GridFunction`` construction
and ``UniformGrid.index_range``.

Spans live in memory (name, operation id, parent span, start, end, and the
entries and bytes computed from the call's arguments) and are written out
after the pass.  Nothing is patched until ``install`` runs, and
``uninstall`` restores every original.

The tracer also keeps what decides each ``approx_factor_atom`` call up to
translation and dilation, and counts the distinct canonical classes per
stage (``shape_classes``): how often a canonical-shape cache could hit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

from cauchylab import grid as cgrid
from cauchylab.factorization import select_big_m

TRACED_MODULES = ("cauchy", "atoms", "spaces", "factorization", "commutator")
ASSEMBLE = ("assemble_related_matrix", "assemble_cauchy_matrix")

_COMPLEX_BYTES = 16
_KERNELS = ("cauchy.related_cauchy_values", "cauchy.related_cauchy_at",
            "cauchy.apply_related_cauchy")
_KEY_DIGITS = 9     # decimals kept when comparing normalized shapes and offsets


def shape_key(record: tuple, hull: str) -> tuple:
    """Canonical class of one atom: its shape, normalized in amplitude and
    phase, on a grid measured in units of its radius R, plus the curve over
    a hull, as breakpoint offsets from the center over R and slopes.

    ``hull`` is ``"grid"``, the atom's whole working grid (what the
    factorization, the residual and its re-atomization see), or ``"pair"``,
    the hull of the atom and the far bump, [x0 - R, x0 + (M + 1) R] (what
    ``approx_factor_atom`` and ``residual`` see).
    """
    curve, shape, left, spacing, count, x0, r, big_m = record
    if hull == "grid":
        lo_x, hi_x = left, left + spacing * (count - 1)
    else:
        lo_x, hi_x = x0 - r, x0 + (big_m + 1) * r
    bp = curve.breakpoints
    k0 = int(np.searchsorted(bp, lo_x, side="right"))
    k1 = int(np.searchsorted(bp, hi_x, side="left"))
    shape = shape / shape[np.argmax(np.abs(shape))]

    def rounded(values) -> bytes:
        return (np.round(values, _KEY_DIGITS) + 0.0).tobytes()    # + 0.0 folds -0.0

    return (count, rounded(spacing / r), rounded((left - x0) / r), rounded(shape),
            rounded((bp[k0:k1] - x0) / r), rounded(curve.slopes[k0:k1 + 1]))


class Tracer:
    """Spans and counters recorded by wrappers patched into cauchylab."""

    def __init__(self):
        self.spans: list[list] = []     # [group, op, parent, start, end, entries, bytes]
        self.counts: Counter = Counter()
        self.op = 0
        self.op_labels: list[str] = ["(none)"]
        self.atoms: list[tuple] = []    # one record per approx_factor_atom call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Argument sizes are computed with the unpatched method, so that
        # measuring does not inflate the index_range count.
        self._index_range = cgrid.UniformGrid.index_range

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["cauchylab"]
        for mod_name in TRACED_MODULES + ("cli",):
            module = sys.modules[f"cauchylab.{mod_name}"]
            names = ["main"] if mod_name == "cli" else [
                n for n, obj in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__]
            for name in names:
                original = getattr(module, name)
                group = "cauchy.assemble" if name in ASSEMBLE else f"{mod_name}.{name}"
                self._patch_everywhere(package, original, self._timed(group, original))
        self._patch(cgrid.GridFunction, "__post_init__",
                    self._counted("grid.GridFunction", cgrid.GridFunction.__post_init__))
        self._patch(cgrid.UniformGrid, "index_range",
                    self._counted("grid.index_range", cgrid.UniformGrid.index_range))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, package, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__
                                      or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name: str, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def _timed(self, group: str, original):
        spans, stack = self.spans, self._stack
        measure = self._measure
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entries, nbytes = measure(group, args, kwargs)
            index = len(spans)
            spans.append([group, self.op, stack[-1] if stack else -1, clock(), 0.0,
                          entries, nbytes])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                spans[index][4] = clock()
                stack.pop()
        return wrapper

    def _measure(self, group: str, args, kwargs) -> tuple[int, int]:
        """Punctured-sum entries and dense bytes, computed from the arguments."""
        if group in _KERNELS:
            f = args[1]
            lo, hi = self._index_range(f.grid, f.support)
            width = max(hi - lo, 0)
            if group == "cauchy.related_cauchy_values":
                rows = args[2] if len(args) > 2 else kwargs["rows"]
                return rows.size * width, 0
            if group == "cauchy.related_cauchy_at":
                return width, 0
            return f.grid.count * width, 0
        if group == "factorization.approx_factor_atom":
            self._record_atom(args, kwargs)
            return 0, 0
        if group == "cauchy.assemble":        # (curve, grid, idx=None)
            grid, idx = args[1], args[2] if len(args) > 2 else kwargs.get("idx")
        elif group == "commutator.commutator_matrix":   # (spec, idx=None)
            grid, idx = args[0].symbol.grid, args[1] if len(args) > 1 else kwargs.get("idx")
        else:
            return 0, 0
        n = grid.count if idx is None else len(idx)
        return n * n, n * n * _COMPLEX_BYTES

    def _record_atom(self, args, kwargs) -> None:
        """Keep what shape_key needs from (weight, atom, support, eps, big_m)."""
        weight, atom, support = args[:3]
        big_m = kwargs.get("big_m", args[4] if len(args) > 4 else None)
        if big_m is None:
            big_m = select_big_m(args[3] if len(args) > 3 else kwargs["eps"])
        grid = atom.grid
        lo, hi = self._index_range(grid, support)
        self.atoms.append((weight.curve, atom.samples[lo:hi].copy(), grid.left,
                           grid.spacing, grid.count, support.center, support.radius,
                           big_m))

    def begin_op(self, label: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.op_labels.append(label)
        self.op = len(self.op_labels) - 1

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,op_label,name,parent,start_s,end_s,entries,bytes\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for group, op, parent, start, end, entries, nbytes in self.spans:
                fh.write(f"{op},{self.op_labels[op]},{group},{parent},{start - t0:.9f},"
                         f"{end - t0:.9f},{entries},{nbytes}\n")

    def layer_metrics(self, names: list[str], atoms_per_stage: dict[str, list[int]],
                      csv_bytes: int, cache_info) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics ``names`` (bar the
        overhead, which needs the untraced passes)."""
        spans = self.spans
        children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[2] >= 0:
                children[span[2]].append(i)

        def duration(i):
            return spans[i][4] - spans[i][3]

        def nested_in_own_group(i):
            p = spans[i][2]
            while p >= 0:
                if spans[p][0] == spans[i][0]:
                    return True
                p = spans[p][2]
            return False

        calls, incl, self_s = Counter(), Counter(), Counter()
        entries, nbytes = Counter(), Counter()
        for i, (group, _, _, _, _, e, b) in enumerate(spans):
            if nested_in_own_group(i):
                continue
            calls[group] += 1
            incl[group] += duration(i)
            self_s[group] += duration(i) - sum(duration(c) for c in children[i])
            entries[group] += e
            nbytes[group] += b

        def within(group, inner):
            """Total time of ``group`` spans minus their ``inner`` descendants."""
            total = 0.0
            for i, span in enumerate(spans):
                if span[0] != group:
                    continue
                total += duration(i)
                todo = list(children[i])
                while todo:
                    c = todo.pop()
                    if spans[c][0] == inner:
                        total -= duration(c)
                    else:
                        todo.extend(children[c])
            return total

        m: dict[str, float] = {}
        for name in names:
            group, _, stat = name.rpartition(".")
            if stat == "calls":
                m[name] = calls[group] + self.counts[group]
            elif stat == "s":
                m[name] = incl[group]
            elif stat == "entries":
                m[name] = entries[group]
            elif stat == "bytes":
                m[name] = nbytes[group]
        kernel_self = sum(self_s[k] for k in _KERNELS)
        m["cauchy.entries_per_s"] = (sum(entries[k] for k in _KERNELS) / kernel_self
                                     if kernel_self > 0 else 0.0)
        lookups = cache_info.hits + cache_info.misses
        m["cauchy.weight_cache.hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
        m["commutator.power_iteration.s"] = within("commutator.commutator_norm_estimate",
                                                   "commutator.commutator_matrix")
        m["commutator.svd.s"] = within("commutator.compactness_profile",
                                       "commutator.commutator_matrix")
        m["cli.main.self_s"] = self_s["cli.main"]
        m["cli.csv_bytes"] = csv_bytes
        m.update(self._stages(atoms_per_stage))
        return m

    def shape_classes(self, atoms_per_stage: dict[str, list[int]]) -> dict[str, dict]:
        """Distinct canonical classes (``shape_key``) per curve and stage, for
        both hulls, and over the whole run of each curve.  The atoms are
        split into curves and stages in call order, by the result's counts."""
        if len(self.atoms) != sum(sum(n) for n in atoms_per_stage.values()):
            raise RuntimeError(f"traced {len(self.atoms)} atoms, results hold "
                               f"{atoms_per_stage}")
        out, first = {}, 0
        for label, per_stage in atoms_per_stage.items():
            entry: dict[str, list | int] = {"atoms": list(per_stage)}
            for hull in ("grid", "pair"):
                keys = [shape_key(rec, hull)
                        for rec in self.atoms[first:first + sum(per_stage)]]
                stages, start = [], 0
                for n in per_stage:
                    stages.append(len(set(keys[start:start + n])))
                    start += n
                entry[f"{hull}_classes"] = stages
                entry[f"{hull}_classes_total"] = len(set(keys))
            out[label] = entry
            first += sum(per_stage)
        return out

    def _stages(self, atoms_per_stage: dict[str, list[int]]) -> dict[str, float]:
        """Split each weak_factorize span into stages by counting its
        approx_factor_atom calls against the per-stage atom counts of the
        result.  Stage k runs from its first atom's factorization to the
        next stage's first (the last stage to the end of the span)."""
        spans = self.spans
        runs = [i for i, s in enumerate(spans) if s[0] == "factorization.weak_factorize"]
        counts = list(atoms_per_stage.values())
        if len(runs) != len(counts):
            raise RuntimeError(f"{len(runs)} traced factorizations, "
                               f"{len(counts)} results")
        stage_atoms = [0, 0, 0]
        stage_s = [0.0, 0.0, 0.0]
        for run, per_stage in zip(runs, counts):
            start, end = spans[run][3], spans[run][4]
            atoms = sorted(s[3] for s in spans if s[0] == "factorization.approx_factor_atom"
                           and start <= s[3] <= end)
            if len(atoms) != sum(per_stage):
                raise RuntimeError(f"traced {len(atoms)} atoms, result holds {per_stage}")
            first = 0
            bounds = []
            for n in per_stage:
                bounds.append(atoms[first] if n else end)
                first += n
            bounds.append(end)
            for k, n in enumerate(per_stage[:3]):
                stage_atoms[k] += n
                stage_s[k] += bounds[k + 1] - bounds[k]
        out = {}
        for k in range(3):
            out[f"factorization.stage{k + 1}.atoms"] = stage_atoms[k]
            out[f"factorization.stage{k + 1}.s"] = stage_s[k]
        out["factorization.atom_ms"] = (1e3 * stage_s[2] / stage_atoms[2]
                                        if stage_atoms[2] else 0.0)
        return out
