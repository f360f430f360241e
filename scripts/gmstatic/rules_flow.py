"""Interprocedural rules built on the call graph + fixpoint engine.

  lock-order          Rebuilt on transitive acquisition summaries: a
                      call made while locks are held is checked against
                      every mutex the callee acquires to arbitrary
                      depth, and inversions report the full
                      "via call to a() → b() → c()" chain.

  status-propagation  A Status / Result returned by a *project* callee
                      must be checked, returned, or explicitly
                      (void)-cast with a justifying comment. Catches
                      the shapes [[nodiscard]] and dropped-status miss:
                      `auto st = f();` never read again, a captured
                      status overwritten before anyone looks at it, and
                      unjustified (void) discards — across call
                      boundaries, because callee return types come from
                      the whole-project index, not the local file.

  money-conservation  A function that opens a money hold (PrepareDebit
                      / Fund escrow surfaces, directly or through a
                      callee that opens without closing) must reach a
                      matching credit / refund / hold-release on every
                      control-flow outcome, including the early error
                      returns hidden inside GM_RETURN_IF_ERROR /
                      GM_ASSIGN_OR_RETURN. Authority files under
                      src/bank/ are the exempt sinks, and a function
                      may be annotated `gmlint: money-sink(reason)`
                      when the hold intentionally outlives it.

The analysis is scope-sensitive but path-insensitive: closes inside a
conditional block cover only that block (they un-merge at the closing
brace) unless the block's condition mentions the open's result
variable, in which case the settle-on-failure / settle-on-success
branch is credited at the outer level too. Opens likewise stay inside
the block that made them — both choices trade missed corner cases for
zero-noise reports, the same bargain the rest of gmstatic makes.
"""

import re

from . import dataflow
from .callgraph import CallGraph, _is_lambda_open, lambda_ranges
from .lexer import IDENT
from .rules_struct import LOCK_ORDER_EXEMPT, _match_acquisition

STATUS_SCOPE = re.compile(r"(^|/)src/")
MONEY_SCOPE = re.compile(r"(^|/)src/")
MONEY_AUTHORITY = re.compile(r"(^|/)src/bank/")

# Escrow-opening / -settling surfaces of the bank, federation and
# auction layers. Matched by callee name at call sites; transitive
# opens/closes flow through the fixpoint summaries.
OPEN_SURFACES = frozenset({"PrepareDebit", "PrepareDebits", "Fund"})
CLOSE_SURFACES = frozenset({"ApplyCredit", "ApplyCredits", "ReleaseHold",
                            "AbortHold", "CloseAccount", "Refund"})

# Macro exits: these expand to a conditional `return`, so every one is
# a control-flow outcome money must be conserved on.
_EXIT_MACROS = frozenset({"GM_RETURN_IF_ERROR", "GM_ASSIGN_OR_RETURN"})

_FALLIBLE_TAILS = frozenset({"Status", "Result"})

# Variable names that signal a deliberate capture-and-ignore.
_IGNORE_NAMES = frozenset({"_", "ignore", "ignored", "unused"})


def get_callgraph(ctx):
    graph = ctx.shared.get("callgraph")
    if graph is None:
        graph = CallGraph(ctx.project)
        ctx.shared["callgraph"] = graph
    return graph


def _skip_lambda(lambdas, i):
    """Index just past the lambda containing i, or None."""
    for start, end in lambdas:
        if start <= i <= end:
            return end + 1
    return None


# ---------------------------------------------------------------------------
# lock-order (fixpoint rebuild)
# ---------------------------------------------------------------------------

def _direct_acquisitions(project, graph, fn):
    """Mutex declarations fn's own body acquires, outside lambdas."""
    if fn.body_end is None:
        return []
    source = graph.fn_source[fn]
    tokens = source.tokens
    local_types = graph.function_local_types(fn)
    lambdas = lambda_ranges(source, fn)
    out = []
    i = fn.body_start + 1
    while i < fn.body_end:
        past = _skip_lambda(lambdas, i)
        if past is not None:
            i = past
            continue
        hit = _match_acquisition(project, source, fn, i, 0, local_types)
        if hit is not None:
            acq, nxt = hit
            if acq.decl is not None and acq.manual != "release":
                out.append(acq.decl)
            i = nxt
            continue
        i += 1
    return out


def _lock_summaries(ctx, graph):
    summaries = ctx.shared.get("lock_summaries")
    if summaries is None:
        project = ctx.project

        def exempt(fn):
            return LOCK_ORDER_EXEMPT.search(
                graph.fn_source[fn].display) is not None

        summaries = dataflow.lock_summaries(
            graph,
            lambda fn: _direct_acquisitions(project, graph, fn),
            exempt=exempt)
        ctx.shared["lock_summaries"] = summaries
    return summaries


def rule_lock_order(ctx, source, report):
    if ctx.path_filter and LOCK_ORDER_EXEMPT.search(source.display):
        return
    project = ctx.project
    if not project.ranks:
        return
    graph = get_callgraph(ctx)
    summaries = _lock_summaries(ctx, graph)
    tokens = source.tokens
    for fn in source.functions:
        if fn.body_end is None:
            continue
        local_types = graph.function_local_types(fn)
        sites = {s.index: s for s in graph.calls.get(fn, ())}
        held = []          # list of (_Acquisition, rank_value)
        lambda_stack = []  # saved held lists at lambda boundaries
        depth = 0
        seen = set()       # (site index, held decl, acquired decl) dedup
        i = fn.body_start + 1
        while i < fn.body_end:
            t = tokens[i]
            text = t.text
            if text == "{":
                if _is_lambda_open(tokens, i):
                    lambda_stack.append((depth, held))
                    held = []
                depth += 1
                i += 1
                continue
            if text == "}":
                depth -= 1
                # A scoped MutexLock dies with the block it was declared
                # in; manual .Lock() survives until .Unlock().
                held = [h for h in held
                        if h[0].manual is True or h[0].depth <= depth]
                if lambda_stack and lambda_stack[-1][0] == depth:
                    _, held = lambda_stack.pop()
                i += 1
                continue
            hit = _match_acquisition(project, source, fn, i, depth,
                                     local_types)
            if hit is not None:
                acq, nxt = hit
                if acq.manual == "release":
                    held = [h for h in held
                            if not (h[0].manual is True
                                    and h[0].receiver == acq.receiver)]
                elif acq.decl is not None:
                    rank = project.rank_of(acq.decl.rank_const)
                    if rank is not None:
                        _check_acquire(report, fn, t, acq.decl, rank,
                                       held, via=None, seen=seen, key=i)
                        held.append((acq, rank))
                i = nxt
                continue
            # Transitive check: every mutex the callee acquires, at any
            # depth, must out-rank everything currently held.
            site = sites.get(i) if held else None
            if site is not None and not site.in_lambda:
                for target in site.targets:
                    summary = summaries.get(target)
                    if not summary:
                        continue
                    for decl, chain in sorted(summary.items(),
                                              key=lambda kv: kv[0].label):
                        rank = project.rank_of(decl.rank_const)
                        if rank is None:
                            continue
                        via = " → ".join((site.label,) + chain)
                        _check_acquire(report, fn, t, decl, rank, held,
                                       via=via, seen=seen, key=i)
            i += 1


def _check_acquire(report, fn, token, decl, rank, held, via, seen, key):
    for held_acq, held_rank in held:
        if held_rank >= rank:
            dedup = (key, held_acq.decl, decl)
            if dedup in seen:
                return
            seen.add(dedup)
            path = f" (via call to {via})" if via else ""
            report(token,
                   subject=f"{fn.qualified}:{held_acq.decl.label}"
                           f"->{decl.label}",
                   message=f"lock-order inversion in {fn.qualified}{path}:"
                           f" acquiring '{decl.label}'"
                           f" ({decl.rank_const}={rank}) while holding"
                           f" '{held_acq.decl.label}'"
                           f" ({held_acq.decl.rank_const}={held_rank});"
                           " ranks must strictly increase along every"
                           " acquisition path")
            return


# ---------------------------------------------------------------------------
# status-propagation
# ---------------------------------------------------------------------------

def rule_status_propagation(ctx, source, report):
    if ctx.path_filter and not STATUS_SCOPE.search(source.display):
        return
    graph = get_callgraph(ctx)
    tokens = source.tokens
    for fn in source.functions:
        if fn.body_end is None:
            continue
        for site in graph.calls.get(fn, ()):
            if any(t.return_type not in _FALLIBLE_TAILS
                   for t in site.targets):
                continue
            rtype = site.targets[0].return_type
            _classify_use(source, tokens, fn, site, rtype, report)


def _chain_start(tokens, i, floor):
    """Start of the receiver chain `a.b->c::` ending at the call name."""
    s = i
    while s - 2 > floor and tokens[s - 1].text in (".", "->", "::") \
            and tokens[s - 2].kind == IDENT:
        s -= 2
    return s


def _match_paren(tokens, i, end):
    """tokens[i] is '('; index of the matching ')'."""
    depth = 0
    while i < end:
        text = tokens[i].text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return end - 1


def _classify_use(source, tokens, fn, site, rtype, report):
    i = site.index
    s = _chain_start(tokens, i, fn.body_start)
    prev = tokens[s - 1].text if s - 1 > fn.body_start else "{"
    if prev == "return":
        return  # propagated to the caller
    if prev == ")" and s - 3 > fn.body_start \
            and tokens[s - 2].text == "void" and tokens[s - 3].text == "(":
        if not _comment_near(source, tokens[s - 3].line):
            report(tokens[i],
                   subject=f"{fn.qualified}:{site.label}:void",
                   message=f"(void)-cast of {site.label} ({rtype}) in"
                           f" {fn.qualified} has no justifying comment on"
                           " the same or previous line; say why dropping"
                           " this error is safe")
        return
    if prev == "=":
        _check_capture(tokens, fn, site, s, rtype, report)
        return
    if prev in (";", "{", "}"):
        close = _match_paren(tokens, i + 1, fn.body_end)
        nxt = tokens[close + 1].text if close + 1 < fn.body_end else ";"
        if nxt in (".", "->"):
            return  # result consumed through member access
        if nxt == ";":
            report(tokens[i],
                   subject=f"{fn.qualified}:{site.label}:dropped",
                   message=f"call to {site.label} returns {rtype} which"
                           f" {fn.qualified} discards; check it, return"
                           " it, or (void)-cast it with a justifying"
                           " comment")
        return
    # Part of a larger expression (condition, argument, GM_* macro):
    # the value is consumed.


def _check_capture(tokens, fn, site, s, rtype, report):
    """`var = call()` — var must be read before any reassignment."""
    if tokens[s - 2].kind != IDENT:
        return
    var = tokens[s - 2].text
    if var in _IGNORE_NAMES or var.endswith("_"):
        return  # deliberate ignore / stored to a member for later
    # Explicitly typed Status/Result declarations stay dropped-status
    # territory; this rule owns the `auto st = f();` shapes.
    j = s - 3
    while j > fn.body_start and tokens[j].text not in (";", "{", "}"):
        if tokens[j].text in _FALLIBLE_TAILS:
            return
        j -= 1
    close = _match_paren(tokens, site.index + 1, fn.body_end)
    k = close + 1
    while k < fn.body_end and tokens[k].text != ";":
        k += 1
    use = None
    for m in range(k + 1, fn.body_end):
        if tokens[m].kind == IDENT and tokens[m].text == var:
            use = m
            break
    if use is None:
        report(tokens[site.index],
               subject=f"{fn.qualified}:{var}",
               message=f"'{var}' captures {site.label}'s {rtype} in"
                       f" {fn.qualified} and is never read: the error is"
                       " silently dropped; check it, return it, or don't"
                       " bind it")
    elif tokens[use + 1].text == "=" and tokens[use - 1].text not in \
            (".", "->"):
        report(tokens[site.index],
               subject=f"{fn.qualified}:{var}",
               message=f"'{var}' captures {site.label}'s {rtype} in"
                       f" {fn.qualified} but is overwritten at line"
                       f" {tokens[use].line} before anyone reads it: the"
                       " first error vanishes; check each result before"
                       " reusing the variable")


def _comment_near(source, line):
    return any(c.line in (line, line - 1) or c.end_line in (line, line - 1)
               for c in source.comments)


# ---------------------------------------------------------------------------
# money-conservation
# ---------------------------------------------------------------------------

def _money_events(graph, fn):
    """(opens, closes) from fn's own body, by surface name, outside
    lambdas."""
    if fn.body_end is None:
        return False, False
    source = graph.fn_source[fn]
    tokens = source.tokens
    lambdas = lambda_ranges(source, fn)
    opens = closes = False
    i = fn.body_start + 1
    while i < fn.body_end:
        past = _skip_lambda(lambdas, i)
        if past is not None:
            i = past
            continue
        t = tokens[i]
        if t.kind == IDENT and i + 1 < fn.body_end \
                and tokens[i + 1].text == "(":
            if t.text in OPEN_SURFACES:
                opens = True
            elif t.text in CLOSE_SURFACES:
                closes = True
        i += 1
    return opens, closes


def _money_summaries(ctx, graph):
    summaries = ctx.shared.get("money_summaries")
    if summaries is None:
        summaries = dataflow.money_summaries(
            graph, lambda fn: _money_events(graph, fn))
        ctx.shared["money_summaries"] = summaries
    return summaries


def _event_kind(name, site, summaries):
    """'open' / 'close' / None for a call site (by surface name first,
    then through the callees' fixpoint summaries). A call may open when
    any resolved target opens, but it settles a hold only when every
    target does: one override that skips the close leaves the hold open
    on its path."""
    if name in OPEN_SURFACES:
        return "open"
    if name in CLOSE_SURFACES:
        return "close"
    if site is not None and site.targets:
        callees = [summaries.get(target) for target in site.targets]
        if any(c is not None and c.opens_net for c in callees):
            return "open"
        if all(c is not None and c.closes and not c.opens
               for c in callees):
            return "close"
    return None


def _block_condition(tokens, i, floor):
    """Condition identifiers of the if/while guarding the block opened
    at tokens[i]; empty set otherwise."""
    j = i - 1
    if j <= floor or tokens[j].text != ")":
        return frozenset()
    depth = 0
    while j > floor:
        text = tokens[j].text
        if text == ")":
            depth += 1
        elif text == "(":
            depth -= 1
            if depth == 0:
                if j - 1 > floor and tokens[j - 1].text in ("if", "while"):
                    return frozenset(t.text for t in tokens[j + 1:i - 1]
                                     if t.kind == IDENT)
                return frozenset()
        j -= 1
    return frozenset()


def _result_var(tokens, i, floor):
    """Variable the open's result lands in: `auto h = Open(...)` or
    `GM_ASSIGN_OR_RETURN(auto h, Open(...))`; None otherwise."""
    s = _chain_start(tokens, i, floor)
    if s - 2 > floor and tokens[s - 1].text == "=" \
            and tokens[s - 2].kind == IDENT:
        return tokens[s - 2].text
    # Inside GM_ASSIGN_OR_RETURN: the declared variable precedes the
    # comma at macro-paren depth 1.
    j = s - 1
    while j > floor and tokens[j].text not in (";", "{", "}"):
        if tokens[j].kind == IDENT and tokens[j].text in _EXIT_MACROS:
            k = j + 2
            depth = 1
            while k < i:
                text = tokens[k].text
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                elif text == "," and depth == 1:
                    return tokens[k - 1].text \
                        if tokens[k - 1].kind == IDENT else None
                k += 1
            return None
        j -= 1
    return None


def _stmt_has_close(tokens, i, end, sites, summaries):
    """Does the statement starting at the exit token tokens[i] contain a
    close event (directly or through a closing callee)?"""
    k = i
    depth = 0
    while k < end:
        text = tokens[k].text
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == ";" and depth <= 0:
            break
        if tokens[k].kind == IDENT and k + 1 < end \
                and tokens[k + 1].text == "(" \
                and _event_kind(text, sites.get(k), summaries) == "close":
            return True
        k += 1
    return False


class _MoneyFrame:
    __slots__ = ("open_label", "open_var", "closed", "cond")

    def __init__(self, open_label, open_var, closed, cond):
        self.open_label = open_label
        self.open_var = open_var
        self.closed = closed
        self.cond = cond


def rule_money_conservation(ctx, source, report):
    if ctx.path_filter and (not MONEY_SCOPE.search(source.display)
                            or MONEY_AUTHORITY.search(source.display)):
        return
    graph = get_callgraph(ctx)
    summaries = _money_summaries(ctx, graph)
    tokens = source.tokens
    for fn in source.functions:
        if fn.body_end is None or fn.money_sink is not None:
            continue
        sites = {s.index: s for s in graph.calls.get(fn, ())}
        lambdas = lambda_ranges(source, fn)
        stack = [_MoneyFrame(None, None, False, frozenset())]
        i = fn.body_start + 1
        while i < fn.body_end:
            past = _skip_lambda(lambdas, i)
            if past is not None:
                i = past
                continue
            t = tokens[i]
            text = t.text
            if text == "{":
                top = stack[-1]
                stack.append(_MoneyFrame(
                    top.open_label, top.open_var, top.closed,
                    _block_condition(tokens, i, fn.body_start)))
                i += 1
                continue
            if text == "}":
                popped = stack.pop()
                if not stack:
                    break
                top = stack[-1]
                # Merge: a branch keyed on the open's result variable
                # settled the hold (failure-refund or success-settle
                # pattern) — credit the outer level.
                if popped.closed and not top.closed and top.open_var \
                        and top.open_var in popped.cond:
                    top.closed = True
                i += 1
                continue
            if text == "return" or (t.kind == IDENT
                                    and text in _EXIT_MACROS):
                # `return Settle(...)` / GM_RETURN_IF_ERROR(Settle(...)):
                # the settle attempt IS the exit statement — credit it
                # before judging the exit.
                if _stmt_has_close(tokens, i, fn.body_end, sites, summaries):
                    stack[-1].closed = True
                _check_money_exit(stack, fn, t, report)
            if t.kind == IDENT and i + 1 < fn.body_end \
                    and tokens[i + 1].text == "(":
                kind = _event_kind(text, sites.get(i), summaries)
                if kind == "open":
                    # `return Delegate(...)`: the hold is the *caller's*
                    # problem — it flows there through fn's own summary.
                    s = _chain_start(tokens, i, fn.body_start)
                    if s - 1 > fn.body_start \
                            and tokens[s - 1].text == "return":
                        i += 1
                        continue
                    top = stack[-1]
                    site = sites.get(i)
                    top.open_label = site.label if site else f"{text}()"
                    top.open_var = _result_var(tokens, i, fn.body_start)
                    top.closed = False
                elif kind == "close":
                    stack[-1].closed = True
            i += 1
        if stack:
            top = stack[-1]
            if top.open_label and not top.closed:
                report(tokens[fn.body_end],
                       subject=f"{fn.qualified}:end",
                       message=f"{fn.qualified} opens a money hold via"
                               f" {top.open_label} that is still open when"
                               " the function ends; settle it"
                               " (credit/refund/release), or annotate the"
                               " function 'gmlint: money-sink(reason)' if"
                               " the hold intentionally outlives it")


def _check_money_exit(stack, fn, token, report):
    top = stack[-1]
    if not top.open_label or top.closed:
        return
    # Exempt exits guarded on the open's own result: the `if (!hold.ok())
    # return ...` failed-open check holds no money.
    if top.open_var and any(top.open_var in frame.cond for frame in stack):
        return
    exit_kind = "early return" if token.text == "return" \
        else f"{token.text} exit"
    report(token,
           subject=f"{fn.qualified}:{top.open_label}",
           message=f"{exit_kind} in {fn.qualified} leaves the money hold"
                   f" opened by {top.open_label} unsettled on this path:"
                   " every outcome must reach a credit, refund, or"
                   " hold-release (or the function must be annotated"
                   " 'gmlint: money-sink(reason)')")
