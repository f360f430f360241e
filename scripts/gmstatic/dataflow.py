"""Bottom-up summary propagation over the call graph.

`solve` evaluates a transfer function once per SCC in callees-first
order (the order `CallGraph.sccs` emits). A singleton, non-recursive
SCC needs exactly one evaluation; a recursive SCC is iterated to a
fixpoint. Transfer functions must be monotone over a finite domain —
the concrete summaries in this repo are "set of lock declarations
(transitively) acquired" and "does this function open / close a money
hold" — so the iteration terminates; a generous round cap backstops
any non-monotone mistake rather than hanging CI.

Summaries here answer "what happens during a call to fn", so the
builders skip call sites inside lambda bodies: a lambda is deferred
work on some other stack, not part of the calling frame.
"""

from .callgraph import MAX_CHAIN

# Backstop for a buggy (non-monotone) transfer; generous because real
# SCCs in this codebase are tiny.
_MAX_ROUNDS = 64


def solve(graph, transfer):
    """summaries: FunctionInfo -> summary.

    `transfer(fn, summary_of)` computes fn's summary given a callable
    returning the current summary of any function (None when not yet
    computed — treat as an empty summary)."""
    summaries = {}

    def summary_of(fn):
        return summaries.get(fn)

    for scc in graph.sccs():
        if not graph.is_recursive(scc):
            fn = scc[0]
            summaries[fn] = transfer(fn, summary_of)
            continue
        for _round in range(_MAX_ROUNDS):
            changed = False
            for fn in scc:
                new = transfer(fn, summary_of)
                if new != summaries.get(fn):
                    summaries[fn] = new
                    changed = True
            if not changed:
                break
    return summaries


# ---------------------------------------------------------------------------
# Concrete summary: transitive lock acquisitions.
# ---------------------------------------------------------------------------

def lock_summaries(graph, direct_acquisitions, exempt=None):
    """decl -> chain map per function.

    `direct_acquisitions(fn)` returns the mutex declarations fn's own
    body acquires (outside lambdas). The solved summary maps each
    transitively acquired declaration to the tuple of call labels
    leading to it: () for a direct acquisition, ("helper()",) for one
    level down, and so on up to MAX_CHAIN. Functions matching `exempt`
    (the lock machinery itself) contribute empty summaries so the
    mechanism is never mistaken for a client.
    """

    def transfer(fn, summary_of):
        if exempt is not None and exempt(fn):
            return {}
        out = {decl: () for decl in direct_acquisitions(fn)}
        for site in graph.calls.get(fn, ()):
            if site.in_lambda:
                continue
            for target in site.targets:
                callee = summary_of(target) or {}
                for decl, chain in sorted(callee.items(),
                                          key=lambda kv: kv[0].label):
                    if decl not in out and len(chain) < MAX_CHAIN:
                        out[decl] = (site.label,) + chain
        return out

    return solve(graph, transfer)


# ---------------------------------------------------------------------------
# Concrete summary: money holds opened / closed.
# ---------------------------------------------------------------------------

class MoneySummary:
    """opens: calls a debit/escrow-opening surface; closes: calls a
    credit/refund/release surface. A function that does both settles
    its own holds and is neutral to callers."""

    __slots__ = ("opens", "closes")

    def __init__(self, opens=False, closes=False):
        self.opens = opens
        self.closes = closes

    def __eq__(self, other):
        return (isinstance(other, MoneySummary)
                and self.opens == other.opens
                and self.closes == other.closes)

    def __hash__(self):
        return hash((self.opens, self.closes))

    @property
    def opens_net(self):
        """Leaves a hold open for the caller to settle."""
        return self.opens and not self.closes


def money_summaries(graph, direct_events):
    """`direct_events(fn)` -> (opens, closes) from fn's own body.
    Solved summaries fold in callee behavior: calling a function that
    opens without closing makes the caller an opener too. A call site
    opens when any of its targets may open, but closes only when every
    target closes (a virtual call whose overrides disagree may skip the
    settle)."""

    def transfer(fn, summary_of):
        opens, closes = direct_events(fn)
        for site in graph.calls.get(fn, ()):
            if site.in_lambda or not site.targets:
                continue
            callees = [summary_of(target) for target in site.targets]
            if any(c is not None and c.opens_net for c in callees):
                opens = True
            if all(c is not None and c.closes and not c.opens
                   for c in callees):
                closes = True
        return MoneySummary(opens, closes)

    return solve(graph, transfer)
