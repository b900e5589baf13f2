"""The sweep engine behind ``invlab experiment``: one ``Sweep`` owns a
run's table and memos and answers a list of checkers (see ``cli``).

``Sweep.run`` advances every checker in rounds and answers each distinct
ask once per run, keyed by the rows of the graph it names (``_key``), as
every memo of the run is.  Each round answers the asked blow-ups' parts,
their cyclic hosts (an acyclic host has value 0) and every cyclic class
their parts' one-vertex deletions reach (``Sweep._below``), then the asks
themselves together with each blow-up of a host by its parts' cores
(``Sweep._core_ask``), each phase per vertex count, smallest first, and
only what is not yet in the table.  ``jobs`` counts solving processes,
the parent included: a phase's tasks that search a level k >= 1
(``solver._searches``; a ``(graph, k)`` ask always does) go to one
``Pool`` map when two or more do, and the parent solves every other.
Every solve is the caller's ``solve((ask, opts))``, with bounds only from
the table (``Sweep._options``), so a solve depends on its task alone;
the solver checks every bound, and a solve no checker asked for gives no
bound when it is unresolved.  The engine alone makes UNKNOWN: when an
answer a checker asked for is unresolved, the checker is not resumed,
and the instance reports the first such reason in ask order,
``budget: <why>`` or ``max-k: inv(<encoding>) > <max-k>``.
"""

from __future__ import annotations

import contextlib
import os
from itertools import accumulate

from . import construct, digraph, solver
from .record import Record

# every acyclic part's core: a Digraph is immutable, so one serves all
TT1 = construct.transitive(1)


class BlowUp(Record):
    """A checker's ask for the value of the blow-up of ``host`` by ``parts``.
    The sweep answers ``inputs()`` first, then solves ``graph`` within the
    bounds they give (see ``Sweep._blowup_options``)."""

    __slots__ = ("host", "parts", "graph")
    host: digraph.Digraph
    parts: tuple[digraph.Digraph, ...]
    graph: digraph.Digraph

    def __init__(self, host: digraph.Digraph, parts: list[digraph.Digraph]):
        super().__init__(host, tuple(parts), construct.blow_up(host, list(parts)))

    def inputs(self) -> list[digraph.Digraph]:
        """The parts, then the host unless it is acyclic (value 0, no set)."""
        cyclic = digraph.is_acyclic(self.host) is None
        return [*self.parts, self.host] if cyclic else list(self.parts)


class Pool(contextlib.nullcontext):
    """``processes`` solving processes per ``map``, the caller one of them:
    child c, forked for that map alone, solves ``tasks[c::jobs]`` from the
    memory it inherited and sends its results (or its exception, raised
    here) back in one pickle; one that exits without them raises
    ChildProcessError.  On any exception every child left is killed and reaped."""

    def __init__(self, processes: int):
        super().__init__(self)  # entered as itself: no process outlives a map
        self.processes = processes

    def map(self, fn, tasks: list) -> list:
        import pickle
        import signal

        jobs, out, children = min(self.processes, len(tasks)) or 1, [None] * len(tasks), []
        try:
            for c in range(1, jobs):
                read, write = os.pipe()
                if (pid := os.fork()) == 0:  # the child: its share, one write, and out
                    try:
                        try:
                            got = [fn(t) for t in tasks[c::jobs]]
                        except Exception as exc:
                            got = exc
                        with open(write, "wb") as fh:
                            pickle.dump(got, fh)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write)
                children.append([pid, open(read, "rb")])
            out[0::jobs] = [fn(t) for t in tasks[0::jobs]]
            for c, child in enumerate(children, 1):
                data = child[1].read()
                status = os.waitpid(child[0], 0)[1]
                child[0] = None  # reaped, so not killed below
                if status:
                    raise ChildProcessError(f"a --jobs worker exited with status "
                                            f"{os.waitstatus_to_exitcode(status)} and no results")
                got = pickle.loads(data)
                if isinstance(got, BaseException):
                    raise got
                out[c::jobs] = got
            return out
        finally:
            for pid, pipe in children:
                pipe.close()
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _graph(ask) -> digraph.Digraph:
    """The graph an ask names: a ``(graph, k)`` ask's graph, or the graph
    a blow-up builds."""
    if isinstance(ask, tuple):
        return ask[0]
    return ask.graph if isinstance(ask, BlowUp) else ask


def _key(ask) -> tuple:
    """Table key: a graph's rows, kept apart from a ``(graph, k)`` ask's
    ``(rows, k)``; a blow-up is keyed by the graph it builds."""
    rows = _graph(ask).out_rows
    return (rows, ask[1]) if isinstance(ask, tuple) else rows


def _by_order(todo: dict) -> list[dict]:
    """The asks of ``todo`` (key -> ask) in one dict per vertex count of
    the graph each names, in ascending order."""
    groups: dict[int, dict] = {}
    for key, ask in todo.items():
        groups.setdefault(_graph(ask).n, {})[key] = ask
    return [groups[n] for n in sorted(groups)]


class Sweep:
    """One run under ``opts`` over ``jobs`` solving processes: its answer
    table (ask key -> answer, or why none), the results resolved (graph key
    -> result), and its memos: each order's ``TournamentClasses`` made once,
    each graph's deletions listed, each part's core walked, each blow-up by
    cores built and each class's witness peeled once (``_deletion_upper``)."""

    __slots__ = ("opts", "jobs", "table", "results", "forms", "listed", "cores", "by_cores",
                 "peeled")

    def __init__(self, opts: solver.SearchOptions, jobs: int = 1):
        self.opts, self.jobs = opts, jobs
        self.table, self.results, self.forms, self.listed = {}, {}, {}, {}
        self.cores, self.by_cores, self.peeled = {}, {}, {}

    def run(self, checkers: list, solve) -> list[tuple | None]:
        """Each checker's outcome, in order: ``(status, detail)``, status
        PASS, FAIL or UNKNOWN, or None outside its identity's scope; each
        task ``(ask, opts)`` is answered by ``solve``, as ``cli._run_one``."""
        outcomes: list[tuple | None] = [None] * len(checkers)
        # (checker index, checker, keys of the asks it waits for)
        waiting = [(i, checker, None) for i, checker in enumerate(checkers)]
        pooled = self.jobs > 1 and len(checkers) > 1
        with Pool(self.jobs) if pooled else contextlib.nullcontext() as pool:
            while waiting:  # one round: advance every checker, then answer what they ask
                asked = []
                todo: dict = {}  # key -> ask, for asks not in the table yet
                for i, checker, keys in waiting:
                    values = None if keys is None else [self.table[key] for key in keys]
                    reason = next((v for v in values or () if isinstance(v, str)), None)
                    if reason is not None:  # an answer it asked for is unresolved
                        outcomes[i] = ("UNKNOWN", reason)
                        continue
                    try:
                        asks = checker.send(values)
                    except StopIteration as stop:
                        if stop.value is not None:
                            holds, detail = stop.value
                            outcomes[i] = ("PASS" if holds else "FAIL", detail)
                        continue
                    keys = [_key(a) for a in asks]
                    todo.update((k, a) for k, a in zip(keys, asks) if k not in self.table)
                    asked.append((i, checker, keys))
                # the blow-ups' inputs and the classes their parts' cores are
                # walked through, not yet in the table, answered first
                blowups = [a for a in todo.values() if isinstance(a, BlowUp)]
                inputs = {_key(g): g for a in blowups for g in a.inputs()}
                parts = {p.out_rows: p for a in blowups for p in a.parts}.values()
                inputs.update((_key(g), g) for g in self._below(parts))
                self._answer({k: g for k, g in inputs.items() if k not in self.table}, solve, pool)
                # then the asks, each blow-up's blow-up by cores in the same pass
                todo = {k: a for k, a in todo.items() if k not in self.table}
                for a in blowups:
                    got = self._core_ask(a)
                    if got is not None and got[0] not in self.table:
                        todo.setdefault(got[0], got[1])
                self._answer(todo, solve, pool)
                waiting = asked
        return outcomes

    def _answer(self, todo: dict, solve, pool) -> None:
        """Every ask of ``todo`` (key -> ask) into the table, solved per
        order, smallest first, within the bounds the table gives; the tasks
        that search go to ``pool`` when two or more do, the rest are solved here."""
        for group in _by_order(todo):
            tasks = [(a.graph if isinstance(a, BlowUp) else a, self._options(a))
                     for a in group.values()]
            searches = [i for i, (ask, o) in enumerate(tasks)
                        if isinstance(ask, tuple) or solver._searches(o)]
            mapped = {}
            if pool is not None and len(searches) > 1:
                mapped = dict(zip(searches, pool.map(solve, [tasks[i] for i in searches])))
            answers = [mapped[i] if i in mapped else solve(t) for i, t in enumerate(tasks)]
            for key, (graph, _), got in zip(group, tasks, answers):
                if isinstance(got, solver.InvResult):
                    if got.resolved:
                        self.results[key] = got
                        got = got.value
                    else:
                        got = f"max-k: inv({digraph.encode_digraph(graph)}) > {self.opts.max_k}"
                self.table[key] = got

    def _by_class(self, T: digraph.Digraph) -> list[tuple[digraph.Digraph, tuple]]:
        """T's one-vertex deletions when they have a canonical form, each
        as ``(R, at)``: R the representative of its class, R's vertex i at
        T's vertex ``at[i]``; on any other graph, nothing."""
        listed = self.listed.get(T.out_rows)
        if listed is None:
            n, listed = T.n, []
            if 2 <= n <= digraph.MAX_ENUM_VERTICES + 1 and T.is_tournament():
                if n - 1 not in self.forms:
                    self.forms[n - 1] = digraph.TournamentClasses(n - 1)
                form = self.forms[n - 1]
                listed = [form.canonical(T, [u for u in range(n) if u != v]) for v in range(n)]
            self.listed[T.out_rows] = listed
        return listed

    def _deletions(self, T: digraph.Digraph) -> list[tuple[digraph.Digraph, tuple]]:
        """T's one-vertex deletions: by class where the forms reach T,
        else each as T's own subgraph, R's vertex i at ``at[i]``, so
        ``qn(n)`` reads ``qn(n - 1)`` from order 9 up (at orders 5 to 8 it
        is not its class's representative, so none is)."""
        n = T.n
        if n <= digraph.MAX_ENUM_VERTICES + 1 and T.is_tournament():
            return self._by_class(T)
        full = (1 << n) - 1
        return [(T.induced(full ^ 1 << v), (*range(v), *range(v + 1, n))) for v in range(n)]

    def _below(self, parts) -> list[digraph.Digraph]:
        """The graphs that finding the cores of ``parts`` and solving
        their blow-ups by cores need, but for those of value 0 (see
        ``_value``): every cyclic class that deleting vertices from the
        parts, one at a time, reaches, and the one vertex that is an
        acyclic part's core.  Every class below an acyclic one is acyclic
        too."""
        seen: dict[tuple[int, ...], digraph.Digraph | None] = {}
        stack = []
        for P in parts:
            if digraph.is_acyclic(P) is None:
                stack.append(P)
            elif self._by_class(P):
                seen[TT1.out_rows] = TT1
        while stack:
            for R, _ in self._by_class(stack.pop()):
                if R.out_rows not in seen:
                    cyclic = digraph.is_acyclic(R) is None
                    seen[R.out_rows] = R if cyclic else None
                    if cyclic:
                        stack.append(R)
        return [R for R in seen.values() if R is not None]

    def _core(self, P: digraph.Digraph) -> tuple | None:
        """P's core ``(C, at)``, C's vertex i at P's vertex ``at[i]``, or
        None when a value the walk reads is unresolved.  From P, the walk
        steps to the first deletion class of the same value until none
        keeps it: C has P's value, and every one-vertex deletion of C a
        smaller one.  A graph the forms do not reach is its own core."""
        rows = P.out_rows
        if rows in self.cores:
            return self.cores[rows]
        value = self._value(P)
        found = None if value is None else (P, tuple(range(P.n)))
        while found is not None:
            C, at = found
            for R, sub in self._by_class(C):
                smaller = self._value(R)
                if smaller is None:
                    found = None
                    break
                if smaller == value:
                    found = R, tuple(at[i] for i in sub)
                    break
            else:
                break  # every deletion of C is smaller: C is the core
        self.cores[rows] = found
        return found

    def _core_ask(self, ask: BlowUp) -> tuple | None:
        """``(key, B, at)``: B the blow-up of ``ask``'s host by its parts'
        cores, keyed ``key``, B's vertex i at ask's vertex ``at[i]``; or
        None when a part has no core, every part is its own, or B is
        acyclic, a value 0 no bound needs."""
        cores = [self._core(p) for p in ask.parts]
        if None in cores or all(C.n == p.n for (C, _), p in zip(cores, ask.parts)):
            return None
        parts = [C for C, _ in cores]
        shape = tuple(map(_key, [ask.host, *parts]))
        if shape not in self.by_cores:
            core = BlowUp(ask.host, parts)
            self.by_cores[shape] = core if digraph.is_acyclic(core.graph) is None else None
        core = self.by_cores[shape]
        if core is None:
            return None
        offsets = accumulate((p.n for p in ask.parts), initial=0)
        at = tuple(off + v for (_, sub), off in zip(cores, offsets) for v in sub)
        return _key(core), core, at

    def _value(self, G: digraph.Digraph) -> int | None:
        """G's value: the table's (0 for any acyclic graph it holds), else 0
        when G is acyclic, with no solve, or None when G is unresolved."""
        found = self.results.get(_key(G))
        if found is not None:
            return found.value
        return 0 if digraph.is_acyclic(G) is not None else None

    def _blowup_options(self, ask: BlowUp) -> solver.SearchOptions:
        """The run's options with the certificates a blow-up's inputs give
        once all are resolved, built from their results alone on the
        blow-up's layout, where part j starts after the vertices of the
        parts before it.  Below: the first part of largest value, the
        blow-up's subgraph on its vertices.  Above: each host witness set
        blown up to the union of its vertices' parts, then each part's
        witness shifted onto its vertices.  A blown-up set reverses the
        arcs between parts as the host's set does the host's arcs, and a
        part's arcs all or none, so the family decycles the blow-up.
        ``solver._bounds`` checks both against the blow-up."""
        parts, opts = ask.parts, self.opts
        found = [self.results.get(_key(g)) for g in ask.inputs()]
        if any(r is None for r in found):
            return opts
        found, host = found[: len(parts)], found[len(parts):]
        offsets = list(accumulate((p.n for p in parts), initial=0))
        masks = [(1 << p.n) - 1 << off for p, off in zip(parts, offsets)]
        best = max(range(len(parts)), key=lambda i: found[i].value)
        lower = solver.Sub(tuple(range(*offsets[best:best + 2])), parts[best], found[best])
        sets = [sum(m for j, m in enumerate(masks) if s >> j & 1)
                for r in host for s in r.witness.sets]
        sets += [s << off for r, off in zip(found, offsets) for s in r.witness.sets]
        upper = digraph.InversionFamily(offsets[-1], sets)
        return solver.SearchOptions(opts.max_k, opts.budget, lower, upper)

    def _options(self, ask) -> solver.SearchOptions:
        """The run's options with every certificate the table gives the
        graph ``ask`` names: a blow-up's from ``_blowup_options``, then
        below the first of strictly larger value among the induced
        subgraphs the table has solved, a blow-up's blow-up by its parts'
        cores (``_core_ask``) or a graph's one-vertex deletions
        (``_deletions``), each mapped into ``ask``'s graph, and a graph's
        above from its deletions' witnesses (``_deletion_upper``).  A
        ``(graph, k)`` ask takes none."""
        opts = self.opts
        if isinstance(ask, tuple):
            return opts
        if isinstance(ask, BlowUp):
            opts = self._blowup_options(ask)
            got = self._core_ask(ask)
            candidates = [] if got is None else [(got[1].graph, got[2])]
        else:
            candidates = self._deletions(ask)
        lower, upper = opts.lower, opts.upper
        for part, at in candidates:
            found = self.results.get(_key(part))
            if found is not None and (lower is None or found.value > lower.result.value):
                lower = solver.Sub(at, part, found)
        if lower is not None and upper is None and not isinstance(ask, BlowUp):
            upper = self._deletion_upper(ask, candidates, lower.result.value)
        return solver.SearchOptions(opts.max_k, opts.budget, lower, upper)

    def _deletion_upper(self, G: digraph.Digraph, candidates: list,
                        value: int) -> digraph.InversionFamily | None:
        """The first family of ``value`` sets that decycles G extending the
        witness of a candidate ``(R, at)`` of that value on n - 1 vertices, the
        vertex ``at`` leaves out in set j for bit j of the least such vector.
        Each R's flipped rows and peel are kept in ``peeled``, by R's rows."""
        n, rows, full = G.n, G.out_rows, (1 << (1 << value)) - 1
        # a mask of vectors has bit x for vector x; par[j]: those that set j
        par = [sum(1 << x for x in range(1 << value) if x >> j & 1) for j in range(value)]
        for part, at in candidates:
            found = self.results.get(_key(part))
            if found is None or found.value != value or len(at) != n - 1:
                continue
            v, sets = n * (n - 1) // 2 - sum(at), found.witness.sets  # v: the vertex left out
            if part.out_rows not in self.peeled:
                # R flipped is acyclic, so the peel lists i after all i reaches
                flipped = digraph._flipped_rows(part.out_rows, sets)
                self.peeled[part.out_rows] = flipped, digraph._peel(flipped, (1 << part.n) - 1)[0]
            flipped, order = self.peeled[part.out_rows]
            # into[i]: the vectors under which i reaches v, bad: v reaches i too
            bad, into = 0, [0] * part.n
            for i in order:
                flip = 0  # the vectors that reverse the arc between at[i] and v
                for s, p in zip(sets, par):
                    flip ^= p * (s >> i & 1)
                out, back = rows[v] >> at[i] & 1, rows[at[i]] >> v & 1
                into[i] = (full ^ flip) * back | flip * out
                heads = flipped[i]
                while heads:
                    into[i] |= into[(heads & -heads).bit_length() - 1]
                    heads &= heads - 1
                bad |= ((full ^ flip) * out | flip * back) & into[i]
            if bad != full:
                x = ((bad + 1) & ~bad).bit_length() - 1  # the least vector not bad
                sets = [sum(1 << u for i, u in enumerate(at) if s >> i & 1) | (x >> j & 1) << v
                        for j, s in enumerate(sets)]
                return digraph.InversionFamily(n, sets)
        return None
