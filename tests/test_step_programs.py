"""Generated step programs against the walker they replaced.

Every ETask plan and every VTask target runs as generated nested-loop
functions (:mod:`repro.patterns.codegen`).  ``tests/walk.py`` is the
explicit-stack walker those functions replaced; here each generated
function is run beside it on drawn patterns (up to 6 vertices, labels
and anti-edges optional, induced and edge-induced) over small graphs,
on the ``sets`` pools and on the kernels of a two-tier graph (both
pool forms), and must yield the same sequence, leave the same counters
and emit the same events.  The deadline, cancellation and early-close
behaviour of the generated code is pinned against the same oracle.
"""

import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ValidationTarget
from repro.errors import TimeLimitExceeded
from repro.exec.context import Budget, TaskContext
from repro.exec.events import (
    KERNEL_INTERSECT,
    PHASE_ALIGN,
    PHASE_BRIDGE,
    VTASK_MATCH,
    VTASK_SPAWN,
    EventBus,
    EventLog,
)
from repro.graph import Graph, community_graph, erdos_renyi, resolve_index
from repro.graph.index import BITSET_MIN_DEGREE
from repro.mining import ConstraintStats, MiningEngine, SetOperationCache
from repro.patterns import ExplorationPlan, Pattern, clique, plan_for, star
from repro.patterns.codegen import (
    ETASK,
    KERNEL,
    SETS,
    VTASK,
    program_source,
    step_program,
)

from walk import walk

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def two_tier(seed, num_labels=0, core_n=24, total_n=30):
    """A dense core plus a degree-2 periphery, average degree >= 16:
    ``auto`` engages the kernels, and pools come in both forms."""
    rng = random.Random(seed)
    core = erdos_renyi(core_n, 0.95, seed=seed)
    adjacency = [list(core.neighbors(v)) for v in core.vertices()]
    adjacency.extend([] for _ in range(total_n - core_n))
    for v in range(core_n, total_n):
        for u in sorted(rng.sample(range(core_n), 2)):
            adjacency[v].append(u)
            adjacency[u].append(v)
    labels = (
        [rng.randrange(num_labels) for _ in range(total_n)]
        if num_labels else None
    )
    graph = Graph(adjacency, labels=labels)
    assert resolve_index(graph, "auto") is not None
    degrees = [graph.degree(v) for v in graph.vertices()]
    assert min(degrees) < BITSET_MIN_DEGREE <= max(degrees)
    return graph


def labelled(graph, num_labels, seed):
    if not num_labels:
        return graph
    rng = random.Random(seed)
    return Graph(
        [graph.neighbors(v) for v in graph.vertices()],
        labels=[rng.randrange(num_labels) for _ in graph.vertices()],
    )


@st.composite
def graphs(draw):
    """``(graph, adjacency)``: sets pools on ER, community and two-tier
    graphs; kernel pools on the two-tier graph."""
    seed = draw(st.integers(0, 10_000))
    num_labels = draw(st.sampled_from([0, 0, 2]))
    kind = draw(st.sampled_from(["er", "community", "two-tier"]))
    if kind == "er":
        n = draw(st.integers(6, 13))
        p = draw(st.sampled_from([0.25, 0.4, 0.6]))
        return labelled(erdos_renyi(n, p, seed=seed), num_labels, seed), "sets"
    if kind == "community":
        graph = community_graph(3, 5, intra_probability=0.6, seed=seed)
        return labelled(graph, num_labels, seed), "sets"
    return two_tier(seed, num_labels), draw(st.sampled_from(["sets", "auto"]))


@st.composite
def patterns(draw, min_vertices=1, max_vertices=6, num_labels=2):
    """Connected patterns with optional labels and anti-edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    if rest:
        edges |= set(draw(st.lists(st.sampled_from(rest), unique=True)))
    free = [pair for pair in rest if pair not in edges]
    anti = (
        draw(st.lists(st.sampled_from(free), unique=True, max_size=2))
        if free else []
    )
    labels = None
    if draw(st.booleans()):
        labels = draw(st.lists(
            st.one_of(st.none(), st.integers(0, num_labels - 1)),
            min_size=n, max_size=n,
        ))
    return Pattern(n, sorted(edges), labels=labels, anti_edges=anti)


#: How a side's cache and context look: ``fast`` probes the entries
#: inline, ``disabled`` and ``observed`` go through ``cache.lookup``.
CACHE_MODES = ["fast", "disabled", "observed"]

#: Nodes one drawn example may visit per side: dense graphs hold far
#: more matches than a test can enumerate.
NODE_CAP = 20_000


class NodeCapReached(Exception):
    pass


class NodeCap(Budget):
    """A deadline that trips after a fixed number of nodes, so both
    sides stop at the same node (and flush what they counted)."""

    def __init__(self, nodes):
        super().__init__(time_limit=float("inf"))
        self.nodes = nodes

    def check_deadline(self):
        self._tick += 1
        if self._tick > self.nodes:
            raise NodeCapReached


class Side:
    """One side of a comparison: its stats, cache, context and events."""

    def __init__(self, mode, budget=None):
        bus = EventBus()
        self.log = EventLog(bus) if mode == "observed" else None
        self.ctx = TaskContext(budget=budget or NodeCap(NODE_CAP), bus=bus)
        self.tick = self.ctx.deadline_tick()
        self.stats = ConstraintStats()
        self.cache = SetOperationCache(
            stats=self.stats, enabled=mode != "disabled", bus=bus,
        )
        self.obs = self.ctx if mode == "observed" else None

    def outcome(self):
        return self.stats.as_dict(), self.log.records if self.log else None


def drain(stream, into):
    """Collect ``stream`` into ``into``; True when the node cap cut it."""
    try:
        for item in stream:
            into.append(item)
    except NodeCapReached:
        return True
    return False


def index_of(graph, adjacency):
    return graph.kernel_index() if adjacency == "auto" else None


# ----------------------------------------------------------------------
# The oracle: the walker, driven the way ETasks and VTasks drove it
# ----------------------------------------------------------------------


def oracle_plan(plan, root, graph, index, side, tick=None, token=None):
    """The walker over a plan from ``root``, matches by pattern vertex."""
    for bound in walk(
        plan.steps, [root], graph, index, side.cache, side.stats,
        tick, token, side.obs, side.stats, False,
    ):
        assignment = [0] * plan.num_steps
        for slot, vertex in enumerate(bound):
            assignment[plan.order[slot]] = vertex
        yield tuple(assignment)


def generated_plan(plan, root, graph, index, side, tick=None, token=None):
    ki = partial(side.obs.emit, KERNEL_INTERSECT, count=1) if side.obs else None
    return plan.program(SETS if index is None else KERNEL)(
        root, graph, index, side.cache, side.stats, tick, token, ki,
    )


def oracle_validate(target, assignment, graph, side, emit):
    """``ValidationTarget`` over the walker, as it validated before its
    recipes were generated."""
    stats, obs, tick = side.stats, side.obs, side.tick
    if emit is None:
        stats.constraint_checks += 1
    stats.vtasks_started += 1
    index = graph.kernel_index() if target._use_kernels else None
    first = emit is None
    if obs is not None:
        mode = {} if first else {"mode": "enumerate"}
        obs.emit(VTASK_SPAWN, gap=target.gap, **mode)
        obs.phase_start(PHASE_ALIGN, gap=target.gap, **mode)
    computed = stats.candidate_computations
    walks = 0
    try:
        for recipe in target.recipes:
            if obs is not None:
                obs.phase_start(PHASE_BRIDGE, gap=target.gap)
            walks += 1
            completion = None
            try:
                for bound in walk(
                    recipe.steps, list(assignment), graph, index,
                    side.cache, stats, tick, None, obs, None, first,
                ):
                    completion = recipe.pick(bound)
                    if emit is not None:
                        emit(completion)
            finally:
                if obs is not None:
                    obs.phase_end(PHASE_BRIDGE)
            if first and completion is not None:
                stats.vtasks_matched += 1
                if obs is not None:
                    obs.emit(VTASK_MATCH, gap=target.gap)
                return completion
        return None
    finally:
        stats.bridge_steps += stats.candidate_computations - computed - walks
        if obs is not None:
            obs.phase_end(PHASE_ALIGN)


def generated_validate(target, assignment, graph, side, emit):
    if emit is None:
        return target.run(assignment, graph, side.cache, side.stats, side.ctx)
    target.enumerate_completions(
        assignment, graph, side.cache, side.stats, emit, side.ctx
    )
    return None


def sampled_matches(graph, pattern, induced, limit):
    """Up to ``limit`` matches, spread over the first few hundred."""
    engine = MiningEngine(graph, induced=induced, adjacency="sets")
    found = [m.assignment for m in engine.find_all(pattern, limit=300)]
    return found[:: max(1, len(found) // limit)][:limit]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graphs(), patterns(), st.booleans(), st.sampled_from(CACHE_MODES),
    st.integers(1, 4),
)
def test_every_plan_matches_the_walker(case, pattern, induced, mode, stride):
    graph, adjacency = case
    index = index_of(graph, adjacency)
    plan = plan_for(pattern, induced=induced)
    oracle, generated = Side(mode), Side(mode)
    for root in list(graph.vertices())[::stride]:
        want, got = [], []
        cut = drain(
            oracle_plan(plan, root, graph, index, oracle, oracle.tick), want
        )
        assert drain(
            generated_plan(plan, root, graph, index, generated, generated.tick),
            got,
        ) == cut
        assert got == want
        if cut:
            break
    assert generated.outcome() == oracle.outcome()


def connected_orders(pattern):
    """Every matching order whose vertices each attach to an earlier one."""
    return [
        order for order in itertools.permutations(pattern.vertices())
        if all(
            any(pattern.has_edge(v, u) for u in order[:i])
            for i, v in enumerate(order) if i
        )
    ]


ORDER_PATTERNS = {
    "clique4": clique(4),
    "star3": star(3),
    "wedge": Pattern(3, [(0, 1), (1, 2)], anti_edges=[(0, 2)]),
    "labelled-diamond": Pattern(
        4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], labels=[0, 1, 0, None]
    ),
}


@pytest.mark.parametrize("adjacency", ["sets", "auto"])
@pytest.mark.parametrize("induced", [True, False], ids=["induced", "edge"])
@pytest.mark.parametrize("name", sorted(ORDER_PATTERNS))
def test_every_matching_order_matches_the_walker(name, induced, adjacency):
    """Every connected order of a plan, so symmetry bounds land on both
    sides of a slot (lower and upper), on both pool forms."""
    pattern = ORDER_PATTERNS[name]
    graph = two_tier(seed=4, num_labels=2 if pattern.is_labeled else 0)
    index = index_of(graph, adjacency)
    bounds = set()
    for order in connected_orders(pattern):
        plan = ExplorationPlan(pattern, order, induced=induced)
        bounds |= {bool(step[4]) for step in plan.steps}
        bounds |= {2 + bool(step[5]) for step in plan.steps}
        for root in (0, 25):
            runs = []
            for run in (oracle_plan, generated_plan):
                side = Side("fast", budget=NodeCap(2_000))
                found = []
                cut = drain(run(plan, root, graph, index, side, side.tick), found)
                runs.append((cut, found, side.stats.as_dict()))
            assert runs[1] == runs[0]
    if name != "labelled-diamond":
        assert bounds == {False, True, 2, 3}


# ----------------------------------------------------------------------
# Targets, in first-match and enumerate mode
# ----------------------------------------------------------------------


@st.composite
def containments(draw):
    """``(P^M, P⁺)``: P⁺ drawn, P^M the subpattern on a connected proper
    prefix of one of its connected orders."""
    p_plus = draw(patterns(min_vertices=2, max_vertices=6))
    order = list(plan_for(p_plus).order)
    k = draw(st.integers(1, p_plus.num_vertices - 1))
    kept = sorted(order[:k])
    p_m = p_plus.subpattern(kept)
    return p_m, p_plus


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graphs(), containments(), st.booleans(), st.sampled_from(CACHE_MODES))
def test_every_target_matches_the_walker(case, pair, induced, mode):
    graph, adjacency = case
    p_m, p_plus = pair
    try:
        target = ValidationTarget(
            p_m, p_plus, graph, induced=induced, adjacency=adjacency
        )
    except ValueError:
        return  # P⁺ cannot bridge from this P^M (the analyzer's CG001)
    oracle, generated = Side(mode), Side(mode)
    # Enumerate mode on the dense graph emits thousands of completions
    # per match: a few matches cover both outcomes.
    limit = 12 if adjacency == "auto" else 25
    for assignment in sampled_matches(graph, p_m, induced, limit):
        for enumerate_all in (False, True):
            runs = []
            for side, validate in (
                (oracle, oracle_validate), (generated, generated_validate),
            ):
                emitted = []
                try:
                    first = validate(
                        target, assignment, graph, side,
                        emitted.append if enumerate_all else None,
                    )
                except NodeCapReached:
                    first = NodeCapReached
                runs.append((first, emitted))
            assert runs[1] == runs[0]
            if runs[0][0] is NodeCapReached:
                break
        else:
            continue
        break
    assert generated.outcome() == oracle.outcome()


# ----------------------------------------------------------------------
# Source safety
# ----------------------------------------------------------------------

HOSTILE = '"); import os #'


def test_no_user_string_reaches_the_source():
    """A pattern name and string labels never enter the emitted text:
    integers are written as literals, anything else as a named
    constant."""
    p_plus = Pattern(
        4, [(0, 1), (1, 2), (0, 2), (2, 3)],
        labels=[HOSTILE, 1, None, HOSTILE], name=HOSTILE,
    )
    p_m = p_plus.subpattern([0, 1, 2])
    graph = Graph(
        [[1, 2], [0, 2], [0, 1, 3], [2]], labels=[HOSTILE, 1, 5, HOSTILE]
    )
    plan = plan_for(p_plus, induced=True)
    target = ValidationTarget(p_m, p_plus, graph, induced=True, adjacency="sets")
    sources = [
        program_source(plan.steps, 1, ETASK, source)
        for source in (SETS, KERNEL)
    ] + [
        program_source(recipe.steps, 3, VTASK, source)
        for recipe in target.recipes
        for source in (SETS, KERNEL)
    ]
    for text in sources:
        assert not re.search(r"\bimport\b|\bos\b|[#'\"]", text), text
    # The named constant still matches: the labelled path is found.
    found = [m.assignment for m in MiningEngine(graph, induced=True).stream(p_plus)]
    assert found == [(0, 1, 2, 3)]
    assert target.run((0, 1, 2), graph, SetOperationCache(), ConstraintStats())


def test_identical_shapes_share_one_function():
    """Recipes are keyed by shape: which pattern vertex a slot binds
    reaches only ``pick``."""
    steps = ((7, (), (), None, (), ()), (8, (0,), (), None, (), ()))
    renamed = ((1, (), (), 4, (), ()), (0, (0,), (), None, (), ()))
    assert step_program(steps, 1, VTASK, SETS) is step_program(
        renamed, 1, VTASK, SETS
    )
    assert step_program(steps, 1, ETASK, SETS) is not step_program(
        renamed, 1, ETASK, SETS
    )


# ----------------------------------------------------------------------
# Deadlines, cancellation and early close
# ----------------------------------------------------------------------


def dense_target():
    graph = two_tier(seed=5)
    return graph, ValidationTarget(
        clique(3), clique(6), graph, induced=True, adjacency="sets"
    )


def core_triangle(graph):
    """A triangle in the dense core: thousands of K6 completions."""
    core = sorted(graph.vertices(), key=graph.degree, reverse=True)
    for a, b, c in zip(core, core[1:], core[2:]):
        if graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c):
            return (a, b, c)
    raise AssertionError("no core triangle")


def expired_budget():
    budget = Budget(time_limit=1.0)
    budget.start -= 10.0  # the limit passed long ago
    return budget


def test_a_vtask_past_its_deadline_raises_within_one_interval():
    graph, target = dense_target()
    assignment = core_triangle(graph)
    sides = []
    for validate in (oracle_validate, generated_validate):
        side = Side("fast", budget=expired_budget())
        with pytest.raises(TimeLimitExceeded):
            validate(target, assignment, graph, side, lambda c: None)
        # The first clock read trips it: the 256th node.
        assert side.ctx.budget._tick == side.ctx.budget.check_interval == 256
        sides.append(side.stats.as_dict())
    assert sides[0] == sides[1]
    assert sides[1]["candidate_computations"] > 0


def test_no_time_limit_means_no_tick(monkeypatch):
    """A context without a limit hands the generated code ``tick=None``:
    the no-op deadline check is never called, at any node."""
    calls = []
    real = Budget.check_deadline
    monkeypatch.setattr(
        Budget, "check_deadline",
        lambda self: calls.append(1) or real(self),
    )
    graph, target = dense_target()
    ctx = TaskContext.create()
    assert ctx.deadline_tick() is None
    engine = MiningEngine(graph, induced=True)
    assert sum(1 for _ in engine.stream(clique(4), ctx=ctx)) > 0
    assignment = core_triangle(graph)
    stats = ConstraintStats()
    target.enumerate_completions(
        assignment, graph, SetOperationCache(stats=stats), stats,
        lambda c: None, ctx=ctx,
    )
    assert stats.candidate_computations > 0
    assert calls == [] and ctx.budget._tick == 0


@pytest.mark.parametrize("adjacency", ["sets", "auto"])
@pytest.mark.parametrize("taken", [0, 1, 7, 40])
def test_early_close_flushes_what_the_walker_counted(adjacency, taken):
    graph = two_tier(seed=3)
    index = index_of(graph, adjacency)
    plan = plan_for(clique(4), induced=True)
    counters = []
    for run in (oracle_plan, generated_plan):
        side = Side("fast")
        stream = run(plan, 0, graph, index, side, side.tick)
        for _ in range(taken):
            next(stream)
        stream.close()
        counters.append(side.stats.as_dict())
    assert counters[0] == counters[1]
    assert counters[1]["matches_found"] == taken


def test_a_cancelled_token_stops_the_generated_walk_where_the_walker_stops():
    graph = two_tier(seed=3)
    plan = plan_for(clique(4), induced=True)
    counters = []
    for run in (oracle_plan, generated_plan):
        side = Side("fast")
        token = side.ctx.token
        stream = run(plan, 0, graph, None, side, side.tick, token)
        next(stream)
        token.cancel("after one match")
        assert list(stream) == []
        counters.append(side.stats.as_dict())
    assert counters[0] == counters[1]
