"""Generated step programs: each plan and recipe compiled once.

A step program is a tuple of :data:`~repro.patterns.plan.PlanStep`
records, one per slot of a partial match: an
:class:`~repro.patterns.plan.ExplorationPlan`'s ``steps`` (an ETask,
run from its root) or a :class:`~repro.core.vtask.BridgeRecipe`'s (a
VTask, run from the P^M match that fills its first ``k`` slots).
Peregrine fixes each step's set operations ahead of time; GraphMini
(PAPERS.md) compiles each pattern's schedule into code.  This module
does the latter: :func:`step_program` emits one Python function per
program, one nested ``for`` loop per step over locals ``b0..bk``, with
every per-step fact (anchors, bounds, injectivity, non-neighbours,
label) unrolled into the loop body.  Two modes:

* ``"etask"`` — a generator over a plan from ``b0 = root`` that yields
  each match indexed by pattern vertex, polls the cancellation token
  at every node and counts the RL-path counters (``rl_paths``,
  ``matches_found``, ``extensions_attempted``);
* ``"vtask"`` — one bridge recipe (§5, Algorithm 2).  Without
  ``emit`` it returns the first completion, or ``None``; with ``emit``
  (promotion's enumerate mode, §5.3) it calls ``emit`` with every
  completion.  :class:`~repro.core.vtask.ValidationTarget` runs a
  target's recipes in heuristic order, each inside its ``bridge``
  phase.

A ``sets`` pool is filtered lazily: each candidate is tested just
before the loop descends into it, so a VTask that finds its first
witness early never tests the rest of its pool.  Filters have no side
effects, so the order in which they run changes no candidate and no
counter; that is why one VTask function serves both modes.  A kernel
pool is filtered before the loop: a bitmask by masks before its one
decode, a sorted tuple in one comprehension.

Every node calls ``tick`` (the run's deadline check, ``None`` when the
run has no time limit).  Pools come from the shared
:class:`~repro.mining.cache.SetOperationCache` under the keys
:func:`~repro.mining.candidates.raw_intersection` (``"sets"``) and
:func:`~repro.mining.candidates.kernel_pool` (``"kernel"``) use; a
probe is one ``dict.get`` (:attr:`~repro.mining.cache.SetOperationCache.get`),
and a miss goes through the miss helpers those two functions call, so
the anchor order of an intersection and its counters cannot drift.
Counters are kept in locals (``n`` pools computed, ``mi`` of them
misses, so ``n − mi`` hits) and added to the stats in a ``finally``,
so a raised ``TimeLimitExceeded`` and a closed generator both leave
them exact.  That ``finally`` is also the one place a program talks to
observers: ``report``, ``None`` when nobody observes the run, gets the
call's ``n`` and ``mi`` once
(:meth:`~repro.exec.context.TaskContext.report_steps`), so no loop
carries an observer call.  Only the integers of the steps (slots, and
labels when they are ints) are written into the source; nothing a user
named reaches ``compile``.

Functions are memoised for the life of the process in an
``lru_cache`` on ``_compile``, keyed by the program's value, so
identical shapes share one function and forked process workers
inherit what their parent compiled.  A recipe is one function,
not a whole target, because compiling a function costs transient
memory in proportion to its length, and what the compiler leaves
behind stays in the process.  Each compiled function is named by its
mode, its pool source and a per-process serial (``vtask_sets_12``, in
file ``<step program vtask_sets_12>``), so a profile or a traceback
tells one from another.  ``tests/walk.py`` keeps the explicit-stack
walker these functions replaced, as their oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .plan import PlanStep

#: Modes (see the module docstring).
ETASK, VTASK = "etask", "vtask"

#: Pool sources: frozenset intersections, or the kernel index.
SETS, KERNEL = "sets", "kernel"

#: Serial numbers of the functions this process compiles.
_SERIAL = count()

#: The helpers emitted code calls per node, by pool source, bound as
#: parameter defaults: a local is a cheaper read than a global, and a
#: smaller instruction.
_BOUND = {
    "sets": "fs=fs, isect=isect, sorted=sorted",
    "kernel": "fs=fs, pool=pool, bits=bits",
}


class _NoLabels(dict):
    """Labels of an unlabeled graph: no vertex carries any label."""

    def __missing__(self, vertex: int) -> None:
        return None


def step_program(
    steps: Tuple[PlanStep, ...], prefix: int, mode: str, source: str
) -> Callable[..., Any]:
    """The compiled function for ``steps`` run from ``prefix`` bound
    slots, memoised by value.

    ``"etask"``: ``(root, graph, index, cache, stats, tick, token,
    report)``, a generator of matches indexed by the vertex each slot
    binds.  ``"vtask"``: ``(a, pick, nbr, graph, index, cache, stats,
    tick, report, emit)``, where ``a`` binds slots ``0..prefix−1``,
    ``pick`` maps the slot tuple of a completion to the returned or
    emitted one, ``nbr`` is the adjacency-set accessor, and ``emit`` is
    ``None`` in first-match mode.  ``index`` is ``None`` over
    ``"sets"``; ``report`` is ``None`` when the run is unobserved.
    A recipe's function is keyed by its shape: what its prefix slots
    bind, and which vertex each later slot binds, reach only ``pick``,
    so recipes of one shape share one function.
    """
    return _compile(_shape(steps, prefix, mode), prefix, mode, source)


def program_source(
    steps: Tuple[PlanStep, ...], prefix: int, mode: str, source: str
) -> str:
    """The source :func:`step_program` compiles, for reading."""
    return _Emitter(mode, source).function(
        _shape(steps, prefix, mode), prefix, "program"
    )


def _shape(
    steps: Tuple[PlanStep, ...], prefix: int, mode: str
) -> Tuple[PlanStep, ...]:
    """What the emitted function depends on: a VTask's steps after its
    prefix, with the vertex each binds left out."""
    if mode != VTASK:
        return steps
    return tuple((0,) + step[1:] for step in steps[prefix:])


@lru_cache(maxsize=None)
def _compile(
    steps: Tuple[PlanStep, ...], prefix: int, mode: str, source: str
) -> Callable[..., Any]:
    emitter = _Emitter(mode, source)
    name = f"{mode}_{source}_{next(_SERIAL)}"
    text = emitter.function(steps, prefix, name)
    # Label constants are parameter defaults, read from the locals the
    # definition runs in; the globals are shared and never change.
    defined = dict(emitter.constants)
    code = compile(text, f"<step program {name}>", "exec")
    exec(code, _namespace(), defined)
    return defined[name]


#: The globals every emitted function shares (one dict, not one each).
_GLOBALS: Dict[str, Any] = {}


def _namespace() -> Dict[str, Any]:
    """The names emitted code calls, besides its arguments."""
    if not _GLOBALS:
        from ..graph.index import bits_to_sorted
        from ..mining.candidates import intersect_and_store, pool_and_store

        _GLOBALS.update(
            fs=frozenset,
            isect=intersect_and_store,
            pool=pool_and_store,
            bits=bits_to_sorted,
            NOLAB=_NoLabels(),
        )
    return _GLOBALS


def _tuple(slots: Sequence[int]) -> str:
    if len(slots) == 1:
        return f"(b{slots[0]},)"
    return "(" + ", ".join(f"b{j}" for j in slots) + ")"


class _Emitter:
    """Writes one function's source, line by line.

    A VTask's ``steps`` hold only the steps after its ``prefix``: slot
    ``prefix + i`` binds ``steps[i]``.
    """

    def __init__(self, mode: str, source: str) -> None:
        if mode not in (ETASK, VTASK) or source not in (SETS, KERNEL):
            raise ValueError(f"no step program for {mode!r} over {source!r}")
        self.mode = mode
        self.source = source
        self.lines: List[str] = []
        #: Labels that are not ints, referenced by name (``L0``, ...).
        self.constants: Dict[str, Any] = {}
        #: An ETask's pattern vertex per slot.
        self.vertices: List[int] = []

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def label(self, label: Any) -> str:
        """A label as source: an int literal, else a named constant."""
        if type(label) is int:
            return str(label)
        for name, value in self.constants.items():
            if value == label:
                return name
        name = f"L{len(self.constants)}"
        self.constants[name] = label
        return name

    def function(
        self, steps: Tuple[PlanStep, ...], prefix: int, name: str
    ) -> str:
        # The signature is written last: it binds the label constants
        # the body names.
        self.put(0, "")
        if self.mode == ETASK:
            params = "root, graph, index, cache, stats, tick, token, report"
            self.put(1, "b0 = root")
            self.put(1, "nbr = (graph if index is None else index.graph)"
                        ".neighbor_set")
            self.vertices = [step[0] for step in steps]
            body = steps[prefix:]
        else:
            if any(step[4] or step[5] for step in steps):
                # The parent ETask consumed them (the Fig 7 discussion).
                raise ValueError("a VTask recipe carries no symmetry bounds")
            params = ("a, pick, nbr, graph, index, cache, stats, tick, "
                      "report, emit")
            self.put(1, "".join(f"b{j}, " for j in range(prefix)) + "= a")
            body = steps
        self.put(1, "get = cache.get")
        if self.source == KERNEL:
            self.put(1, "nb = index.neighbor_bits; ck = index.cache_key")
        elif any(step[3] is not None for step in body):
            self.put(1, "lab = graph.labels")
            self.put(1, "if lab is None: lab = NOLAB")
        etask = self.mode == ETASK
        self.put(1, "n = mi = x = r = f = 0" if etask else "n = mi = 0")
        self.put(1, "try:")
        self.node(body, prefix, prefix, 2)
        self.put(1, "finally:")
        if etask:
            self.put(2, "stats.extensions_attempted += x; "
                        "stats.rl_paths += r; stats.matches_found += f")
        self.put(2, "stats.candidate_computations += n")
        self.put(2, "cs = cache.stats; cs.cache_hits += n - mi; "
                    "cs.cache_misses += mi")
        self.put(2, "if report is not None: report(n, mi)")
        bound = "".join(f", {label}={label}" for label in self.constants)
        self.lines[0] = (
            f"def {name}({params}, {_BOUND[self.source]}{bound}):"
        )
        return "\n".join(self.lines) + "\n"

    def node(
        self, body: Tuple[PlanStep, ...], prefix: int, slot: int, depth: int
    ) -> None:
        """The node where slots ``0..slot−1`` are bound."""
        self.put(depth, "if tick is not None: tick()")
        if self.mode == ETASK:
            self.put(depth, "if token is not None and token.cancelled: return")
        if slot == prefix + len(body):
            if self.mode == ETASK:
                # Indexed by the vertex each slot binds.
                order = sorted(range(slot), key=self.vertices.__getitem__)
                self.put(depth, "r += 1; f += 1")
                self.put(depth, f"yield {_tuple(order)}")
            else:
                self.put(depth, f"done = pick({_tuple(range(slot))})")
                self.put(depth, "if emit is None: return done")
                self.put(depth, "emit(done)")
            return
        _, anchors, nonneighbors, label, lower, upper = body[slot - prefix]
        b = f"b{slot}"
        c = f"c{slot}"
        # Bounds imply distinctness, and so does adjacency (a graph has
        # no self loops): only the other slots need an inequality.
        others = [
            j for j in range(slot)
            if j not in anchors and j not in lower and j not in upper
        ]
        barred = [f"d{slot}_{j}" for j in nonneighbors]
        lab = "None" if label is None else self.label(label)
        if self.source == SETS:
            self.put(depth, f"n += 1; k = fs(t := {_tuple(anchors)}); "
                            "m = get(k)")
            self.put(depth, "if m is None: "
                            "mi += 1; m = isect(graph, t, k, cache, stats)")
        else:
            self.put(depth, f"n += 1; k = (fs(t := {_tuple(anchors)}), "
                            f"{lab}, ck); m = get(k)")
            self.put(depth, "if m is None: mi += 1; "
                            f"m = pool(index, t, {lab}, k, cache, stats)")
        if self.source == SETS:
            # Each candidate is tested just before the loop descends into
            # it: a VTask that finds its first witness early never tests
            # the rest of the pool.  A node whose every candidate fails is
            # an ETask's dead end, counted when the loop ends: no tick and
            # no yield lies between the test and the count.
            for name, j in zip(barred, nonneighbors):
                self.put(depth, f"{name} = nbr(b{j})")
            reject = (
                [f"{b} <= b{j}" for j in lower]
                + [f"{b} >= b{j}" for j in upper]
                + [f"{b} == b{j}" for j in others]
                + [f"{b} in {name}" for name in barred]
                + ([f"lab[{b}] != {lab}"] if label is not None else [])
            )
            if self.mode == ETASK:
                self.put(depth, f"e{slot} = 1")
            self.put(depth, f"for {b} in sorted(m):")
            if reject:
                self.put(depth + 1, f"if {' or '.join(reject)}: continue")
            if self.mode == ETASK:
                self.put(depth + 1, f"e{slot} = 0; x += 1")
            self.node(body, prefix, slot + 1, depth + 1)
            if self.mode == ETASK:
                self.put(depth, f"r += e{slot}")
            return
        # A kernel pool.  A bitmask: bounds, injectivity and
        # non-neighbours as masks before the one decode.
        self.put(depth, "if type(m) is int:")
        masks = []
        if lower:
            masks.append(f"m &= -1 << {_extreme('max', lower)} + 1")
        if upper:
            masks.append(f"m &= (1 << {_extreme('min', upper)}) - 1")
        if others:
            masks.append(
                "m &= ~(" + " | ".join(f"1 << b{j}" for j in others) + ")"
            )
        if masks:
            self.put(depth + 1, "if m:")
            for mask in masks:
                self.put(depth + 2, mask)
        for j in nonneighbors:
            self.put(depth + 1, f"if m: m &= ~nb(b{j})")
        self.put(depth + 1, f"{c} = bits(m)")
        # An ascending, label-filtered tuple: filtering keeps it so.
        self.put(depth, "else:")
        for name, j in zip(barred, nonneighbors):
            self.put(depth + 1, f"{name} = nbr(b{j})")
        keep = (
            [f"b{j} < v" for j in lower]
            + [f"v < b{j}" for j in upper]
            + [f"v != b{j}" for j in others]
            + [f"v not in {name}" for name in barred]
        )
        members = "m"
        if keep:
            members = f"[v for v in m if {' and '.join(keep)}]"
        self.put(depth + 1, f"{c} = {members}")
        if self.mode == ETASK:
            # Dead end: this root-to-leaf path ends below a match.
            self.put(depth, f"if not {c}: r += 1")
        self.put(depth, f"for {b} in {c}:")
        if self.mode == ETASK:
            self.put(depth + 1, "x += 1")
        self.node(body, prefix, slot + 1, depth + 1)


def _extreme(name: str, slots: Sequence[int]) -> str:
    if len(slots) == 1:
        return f"b{slots[0]}"
    return f"{name}({', '.join(f'b{j}' for j in slots)})"
