"""Static lock-order (deadlock) analysis over the whole tree.

Builds a lock-ordering digraph from the cpp_model extraction:

  * a LockGuard acquired while other guards are live adds an edge
    held -> acquired (per nesting pair, with the file:line witness);
  * MALSCHED_REQUIRES(m) puts m in the held set for the whole body;
  * a call made while holding locks adds held -> a for every lock `a`
    the callee may acquire (its own guards plus, transitively, those of
    everything it calls -- a fixpoint over the call graph). Lambdas are
    deferred execution and contribute nothing at the construction site.

Mutex identity is per class (`SchedulerService::mutex_`) or per file for
locals and unresolved expressions (`src/model/instance_handle.cpp:table.mutex`).
Per-class keys cannot tell two instances apart, so call-mediated
self-edges (h -> h via a call) are dropped instead of reported; a DIRECT
self-nesting (two guards on the same key in one body) is kept -- that is
a relock, real regardless of instance identity.

The intended order is declared where the lock vocabulary lives
(src/support/mutex.hpp) with comment directives:

    // lint:lock-order(Outer::mutex_ -> Inner::mutex_)

Arrow chains declare consecutive pairs. The analysis then reports:

  * `lock-order` -- a cycle in the OBSERVED graph, with the witness path
    (this is the static-deadlock finding; a declared-order cycle is also
    reported, anchored at the declaration);
  * `lock-order-undeclared` -- an observed edge not covered by the
    transitive closure of the declarations (skipped for edges already
    inside a reported cycle: the cycle is the actionable finding there).
"""

import collections
import re

from . import cpp_model
from .engine import Diagnostic, TreeRule

DECLARE_RE = re.compile(r"lint:lock-order\(([^)]+)\)")

_SKIP_RECEIVERS = frozenset({"std", "<skip>"})


class Edge:
    __slots__ = ("src", "dst", "rel", "line", "why")

    def __init__(self, src, dst, rel, line, why):
        self.src = src
        self.dst = dst
        self.rel = rel
        self.line = line
        self.why = why

    def witness(self):
        return f"{self.rel}:{self.line}: {self.src} held -> acquires {self.dst} ({self.why})"


class LockOrderRule(TreeRule):
    id = "lock-order"
    doc = ("static deadlock check: LockGuard nesting + REQUIRES/call graph "
           "vs the hierarchy declared via lint:lock-order(...) in "
           "support/mutex.hpp")

    def __init__(self, model_cache):
        self.model_cache = model_cache

    # --------------------------------------------------------- resolution

    def resolve(self, expr, fn, model):
        """Map a guard/annotation expression to a stable mutex key."""
        parts = [p for p in re.split(r"\.|->", expr) if p]
        if not parts:
            return None
        if len(parts) == 1:
            name = parts[0]
            if name in fn.locals:
                return f"{fn.rel}:{name}"
            if fn.cls:
                return f"{fn.cls}::{name}"
            return f"{fn.rel}:{name}"
        base, member = parts[0], parts[-1]
        base_type = self.base_type(base, fn, model)
        if base_type:
            return f"{base_type}::{member}"
        return f"{fn.rel}:{'.'.join(parts)}"

    @staticmethod
    def base_type(base, fn, model):
        if base == "this":
            return fn.cls
        local = fn.locals.get(base)
        if local and local != "auto":
            return local
        cls = model.classes.get(fn.cls) if fn.cls else None
        if cls is not None and base in cls.fields:
            return cls.fields[base].type
        if base in model.classes:
            return base  # Class::static_member / Class::method form
        return None

    def resolve_call(self, ev, fn, model):
        """Callee qualname, or None when the target is not in the model."""
        if ev.receiver in _SKIP_RECEIVERS:
            return None
        if ev.receiver == "":
            if fn.cls and f"{fn.cls}::{ev.name}" in model.functions:
                return f"{fn.cls}::{ev.name}"
            if ev.name in model.functions:
                return ev.name
            return None
        base_type = self.base_type(ev.receiver, fn, model)
        if base_type is None:
            return None
        qualname = f"{base_type}::{ev.name}"
        return qualname if qualname in model.functions else None

    # --------------------------------------------------------- acquisitions

    def effective_acquires(self, model):
        """Fixpoint: locks each function may take, directly or via calls.
        Lambda bodies are separate functions; nobody 'calls' them here, so
        their acquisitions stay out of every call site (deferred)."""
        own = {}
        calls = {}
        for qualname, fn in model.functions.items():
            acquired = set()
            for ev in fn.events:
                if ev.kind == "guard":
                    key = self.resolve(ev.expr, fn, model)
                    if key:
                        acquired.add(key)
            # Annotation-declared acquisitions count only when they name a
            # real data member (a parameter name would mint a phantom key).
            cls = model.classes.get(fn.cls) if fn.cls else None
            for expr in fn.acquires_ann:
                leaf = re.split(r"\.|->", expr)[-1]
                if cls is not None and leaf in cls.fields:
                    acquired.add(f"{fn.cls}::{leaf}")
            own[qualname] = acquired
            calls[qualname] = {
                callee for callee in
                (self.resolve_call(ev, fn, model)
                 for ev in fn.events if ev.kind == "call")
                if callee is not None}

        eff = {qualname: set(acq) for qualname, acq in own.items()}
        changed = True
        while changed:
            changed = False
            for qualname, callees in calls.items():
                bucket = eff[qualname]
                before = len(bucket)
                for callee in callees:
                    bucket |= eff[callee]
                changed = changed or len(bucket) != before
        return eff

    def collect_edges(self, model):
        eff = self.effective_acquires(model)
        edges = []
        for qualname, fn in model.functions.items():
            held0 = []
            for expr in fn.requires:
                key = self.resolve(expr, fn, model)
                if key:
                    held0.append(key)
            stack = []  # (key, depth)
            for ev in fn.events:
                if ev.kind == "scope-end":
                    while stack and stack[-1][1] > ev.depth:
                        stack.pop()
                    continue
                held = held0 + [key for key, _ in stack]
                if ev.kind == "guard":
                    key = self.resolve(ev.expr, fn, model)
                    if not key:
                        continue
                    for h in held:
                        edges.append(Edge(h, key, fn.rel, ev.line,
                                          f"guard nesting in {qualname}"))
                    stack.append((key, ev.depth))
                elif ev.kind == "call" and held:
                    callee = self.resolve_call(ev, fn, model)
                    if callee is None:
                        continue
                    for acquired in eff.get(callee, ()):
                        for h in held:
                            if acquired == h:
                                continue  # per-class keys: instance unknown
                            edges.append(Edge(h, acquired, fn.rel, ev.line,
                                              f"{qualname} calls {callee}"))
        return edges

    # --------------------------------------------------------- declarations

    @staticmethod
    def declared_order(files):
        """(declared_pairs, sites): pairs from every lint:lock-order(...)
        chain; sites anchor declaration-level diagnostics."""
        pairs = set()
        sites = []
        for sf in files:
            for lineno, line in enumerate(sf.raw_lines, 1):
                for chain_text in DECLARE_RE.findall(line):
                    chain = [part.strip() for part in chain_text.split("->")]
                    chain = [part for part in chain if part]
                    for a, b in zip(chain, chain[1:]):
                        pairs.add((a, b))
                    sites.append((sf.rel, lineno, chain))
        return pairs, sites

    @staticmethod
    def closure(pairs):
        succ = collections.defaultdict(set)
        for a, b in pairs:
            succ[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in list(succ):
                extra = set()
                for b in succ[a]:
                    extra |= succ.get(b, set())
                if not extra <= succ[a]:
                    succ[a] |= extra
                    changed = True
        return succ

    # --------------------------------------------------------- reporting

    def check_tree(self, files, strict):
        model = self.model_cache.get(files)
        edges = self.collect_edges(model)
        declared, sites = self.declared_order(files)
        out = []

        graph = collections.defaultdict(set)
        by_pair = collections.OrderedDict()
        for edge in edges:
            graph[edge.src].add(edge.dst)
            by_pair.setdefault((edge.src, edge.dst), edge)

        in_cycle = set()
        for component in self.cyclic_sccs(graph):
            cycle_path = self.cycle_path(component, graph)
            witness = []
            for a, b in zip(cycle_path, cycle_path[1:]):
                edge = by_pair[(a, b)]
                witness.append(edge.witness())
                in_cycle.add((a, b))
            anchor = by_pair[(cycle_path[0], cycle_path[1])]
            out.append(Diagnostic(
                anchor.rel, anchor.line, "lock-order",
                "static deadlock: lock acquisition cycle "
                + " -> ".join(cycle_path), witness))

        closure = self.closure(declared)
        for (a, b), edge in by_pair.items():
            if (a, b) in in_cycle:
                continue
            if b in closure.get(a, ()):
                continue
            out.append(Diagnostic(
                edge.rel, edge.line, "lock-order-undeclared",
                f"lock ordering {a} -> {b} is not declared; add "
                "lint:lock-order(...) to src/support/mutex.hpp (or fix the "
                "nesting) so the hierarchy stays reviewable",
                [edge.witness()]))

        declared_graph = collections.defaultdict(set)
        for a, b in declared:
            declared_graph[a].add(b)
        for component in self.cyclic_sccs(declared_graph):
            rel, lineno = sites[0][0], sites[0][1]
            out.append(Diagnostic(
                rel, lineno, "lock-order",
                "declared lock hierarchy is cyclic: "
                + " -> ".join(self.cycle_path(component, declared_graph))))
        return out

    @staticmethod
    def cyclic_sccs(graph):
        """Tarjan SCCs that contain a cycle (size > 1, or a self-loop)."""
        index = {}
        low = {}
        on_stack = set()
        stack = []
        counter = [0]
        sccs = []

        def strongconnect(v):
            # iterative Tarjan (fixtures are tiny but the tree is not)
            work = [(v, iter(sorted(graph.get(v, ()))))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(sorted(graph.get(child, ())))))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)

        vertices = set(graph)
        for targets in graph.values():
            vertices |= targets
        for v in sorted(vertices):
            if v not in index:
                strongconnect(v)

        cyclic = []
        for component in sccs:
            if len(component) > 1 or component[0] in graph.get(component[0], ()):
                cyclic.append(sorted(component))
        return cyclic

    @staticmethod
    def cycle_path(component, graph):
        """A concrete closed walk through the SCC, e.g. [A, B, A]. BFS so
        every step is a real edge (a witness exists for each pair)."""
        members = set(component)
        start = component[0]
        if start in graph.get(start, ()):
            return [start, start]
        parent = {start: None}
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            for nxt in sorted(graph.get(node, ())):
                if nxt == start and node != start:
                    path = []
                    cursor = node
                    while cursor is not None:
                        path.append(cursor)
                        cursor = parent[cursor]
                    path.reverse()
                    return path + [start]
                if nxt in members and nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        return [start, start]  # cannot happen for a true SCC
