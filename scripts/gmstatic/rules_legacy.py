"""The six legacy gmlint rules, ported from line regexes onto the
gmstatic token stream. Semantics match scripts/gmlint.py's historical
behavior (same fixtures must pass), minus the false-positive classes a
real lexer eliminates: matches inside string literals and comments.
"""

import re

from .analysis import skip_template_args
from .lexer import CHAR, IDENT, NUMBER, PUNCT, STRING, KEYWORDS

# -- path scopes (mirroring gmlint.py) --

NONDET_EXEMPT = re.compile(r"(^|/)src/(common/rng\.|crypto/)")
# units.hpp defines the money types themselves; its internal raw
# comparisons (is_zero and friends) are the sanctioned primitives every
# other file is steered towards.
FLOAT_MONEY_EXEMPT = re.compile(r"(^|/)src/common/units\.hpp$")
UNORDERED_SCOPE = re.compile(r"(^|/)src/(sim|market)/")
RAW_THREADING_EXEMPT = re.compile(r"(^|/)src/common/concurrency\.")
HOTPATH_SCOPE = re.compile(r"(^|/)src/(market|bestresponse)/")

MONEY_WORDS = {"price", "dollar", "dollars", "budget", "cost", "spent",
               "refund", "refunded", "money"}
NONMONEY_WORDS = {"span", "id", "count", "idx", "index", "seq", "nonce",
                  "name", "kind", "state", "ok", "status"}

_RAW_THREADING = frozenset({
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "recursive_timed_mutex", "thread", "jthread", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock", "condition_variable",
    "condition_variable_any",
})

_NONDET_BARE = frozenset({"random_device", "system_clock", "gettimeofday"})

_UNORDERED = frozenset({"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"})

# Layer graph: which top-level src/ directories each directory may include
# from. Mirrors the CMake target graph; notably market/ and host/ must not
# include grid/ (the broker layer sits above the market, never below it).
LAYERS = {
    "common": {"common"},
    "math": {"common", "math"},
    "sim": {"common", "sim"},
    "crypto": {"common", "crypto"},
    "bestresponse": {"bestresponse", "common"},
    "telemetry": {"common", "sim", "telemetry"},
    # A leaf: the record serializer the journals share.
    "net": {"common", "net"},
    "store": {"common", "net", "store", "telemetry"},
    "bank": {"bank", "common", "crypto", "net", "sim", "store", "telemetry"},
    "host": {"bank", "common", "host", "market", "sim"},
    "market": {"common", "host", "market", "net", "sim", "store",
               "telemetry"},
    "predict": {"bestresponse", "common", "market", "math", "predict"},
    "grid": {"bank", "bestresponse", "common", "crypto", "grid", "host",
             "market", "net", "sim", "store", "telemetry"},
    "core": {"bank", "common", "core", "crypto", "grid", "host", "market",
             "net", "predict", "sim", "store", "telemetry"},
    "workload": {"common", "core", "grid", "workload"},
    # The scenario engine drives whole-economy stress runs through the
    # core/ facade only: it may model load (math/, workload/) and read
    # telemetry, but must never reach into host/, market/ or bank/
    # internals — adversaries attack public surfaces.
    "scenario": {"common", "core", "math", "scenario", "sim", "telemetry",
                 "workload"},
    # Sublayer of bank/: the sharded federation may build on the bank,
    # durability and telemetry layers but must never reach up into the
    # facade (core/) or broker (grid/) layers above it.
    "federation": {"bank", "common", "crypto", "net", "sim", "store",
                   "telemetry"},
}
SRC_DIR = re.compile(r"(^|/)src/([^/]+)/")
SUBLAYER_DIRS = (
    (re.compile(r"(^|/)src/bank/federation/"), "federation"),
)


def components(expr):
    """Split the tail of a C++ expression into lower-case words."""
    tail = expr.split(".")[-1].split("->")[-1].split("::")[-1]
    tail = re.sub(r"[()\[\]]", "", tail)
    return [part.lower() for part in re.split(r"_+|(?<=[a-z])(?=[A-Z])", tail)
            if part]


def moneyish(expr):
    if re.search(r"\.(dollars|dollars_per_sec)\(\)", expr):
        return True
    words = components(expr)
    return (any(word in MONEY_WORDS for word in words)
            and not any(word in NONMONEY_WORDS for word in words))


# -- helpers over the token stream --

def _prev_is_std(tokens, i):
    return i >= 2 and tokens[i - 1].text == "::" \
        and tokens[i - 2].text == "std"


def _expr_text_backward(tokens, i):
    """Concatenated expression text ending just before tokens[i]."""
    parts = []
    depth = 0
    j = i - 1
    while j >= 0:
        t = tokens[j]
        text = t.text
        if text in (")", "]"):
            depth += 1
            parts.append(text)
        elif text in ("(", "["):
            if depth == 0:
                break
            depth -= 1
            parts.append(text)
        elif depth > 0:
            parts.append(text)
        elif text in (".", "::", "->"):
            parts.append(text)
        elif (t.kind in (IDENT, NUMBER) and text not in KEYWORDS) \
                or text in ("this",):
            parts.append(text)
        else:
            break
        j -= 1
    return "".join(reversed(parts))


def _expr_text_forward(tokens, i):
    """Concatenated expression text starting just after tokens[i]."""
    parts = []
    depth = 0
    j = i + 1
    n = len(tokens)
    while j < n:
        t = tokens[j]
        text = t.text
        if text in ("(", "["):
            depth += 1
            parts.append(text)
        elif text in (")", "]"):
            if depth == 0:
                break
            depth -= 1
            parts.append(text)
        elif depth > 0:
            parts.append(text)
        elif text in (".", "::", "->"):
            parts.append(text)
        elif (t.kind in (IDENT, NUMBER) and text not in KEYWORDS) \
                or text in ("this",):
            parts.append(text)
        else:
            break
        j += 1
    return "".join(parts)


def range_for_clauses(tokens):
    """Yield (for_token_index, colon_index, close_index) for every
    range-for in the stream: `for ( decl : expr )`."""
    n = len(tokens)
    for i in range(n - 2):
        if not (tokens[i].kind == IDENT and tokens[i].text == "for"
                and tokens[i + 1].text == "("):
            continue
        depth = 0
        colon = None
        j = i + 1
        while j < n:
            text = tokens[j].text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text == ":" and depth == 1 and colon is None:
                colon = j
            elif text == ";" and depth == 1:
                colon = None  # classic for, not range-for
                break
            j += 1
        if colon is not None and j < n:
            yield i, colon, j


def _range_for_simple_name(tokens, colon, close):
    """The container name when the range expression is a bare
    (possibly &-qualified, possibly this->) identifier; else None."""
    expr = [t.text for t in tokens[colon + 1:close]]
    while expr and expr[0] in ("&", "*"):
        expr = expr[1:]
    if len(expr) >= 2 and expr[0] == "this" and expr[1] == "->":
        expr = expr[2:]
    if len(expr) == 1 and re.fullmatch(r"[A-Za-z_]\w*", expr[0]):
        return expr[0]
    return None


def _range_expr_has(tokens, colon, close, idents):
    return any(t.kind == IDENT and t.text in idents
               for t in tokens[colon + 1:close])


# -- the rules --

def rule_nondeterminism(ctx, source, report):
    if ctx.path_filter and NONDET_EXEMPT.search(source.display):
        return
    tokens = source.tokens
    for i, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        hit = None
        if t.text in _NONDET_BARE:
            hit = ("std::" + t.text) if _prev_is_std(tokens, i) else t.text
        elif t.text == "rand" and _prev_is_std(tokens, i):
            hit = "std::rand"
        if hit:
            report(t, subject=hit,
                   message=f"'{hit}' breaks deterministic replay; use"
                           " common::Rng / sim::Kernel time instead")


def rule_unordered_iteration(ctx, source, report):
    if ctx.path_filter and not UNORDERED_SCOPE.search(source.display):
        return
    tokens = source.tokens
    names = ctx.project.unordered_names
    for for_i, colon, close in range_for_clauses(tokens):
        t = tokens[for_i]
        name = _range_for_simple_name(tokens, colon, close)
        if name is not None and name in names:
            report(t, subject=name,
                   message=f"iteration over unordered container '{name}':"
                           " hash order is not deterministic; use std::map"
                           " or sort first")
        elif _range_expr_has(tokens, colon, close, _UNORDERED):
            report(t, subject="inline",
                   message="iteration over unordered container: hash order"
                           " is not deterministic; use std::map or sort"
                           " first")


def rule_float_money_eq(ctx, source, report):
    if ctx.path_filter and FLOAT_MONEY_EXEMPT.search(source.display):
        return
    tokens = source.tokens
    n = len(tokens)
    # Lines anchored to the exact integer grid are exempt wholesale
    # (mirrors the legacy EXACT_HINT line filter).
    exact_lines = set()
    for i, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        if t.text == "Money" and i + 1 < n and tokens[i + 1].text == "::":
            exact_lines.add(t.line)
        elif t.text == "Micros":
            exact_lines.add(t.line)
        elif t.text == "micros" and i > 0 and tokens[i - 1].text == "." \
                and i + 1 < n and tokens[i + 1].text == "(":
            exact_lines.add(t.line)
        elif t.text == "micros_per_sec" and i + 1 < n \
                and tokens[i + 1].text == "(":
            exact_lines.add(t.line)
    reported_lines = set()
    for i, t in enumerate(tokens):
        if t.kind != PUNCT or t.text not in ("==", "!="):
            continue
        if t.line in exact_lines or t.line in reported_lines:
            continue
        left = _expr_text_backward(tokens, i)
        right = _expr_text_forward(tokens, i)
        if moneyish(left) or moneyish(right):
            reported_lines.add(t.line)
            report(t, subject=f"{left}{t.text}{right}"[:80],
                   message=f"raw '{t.text}' on floating-point money;"
                           " compare Money (exact micros) or use ApproxEq")


def rule_raw_threading(ctx, source, report):
    if ctx.path_filter and RAW_THREADING_EXEMPT.search(source.display):
        return
    tokens = source.tokens
    for i, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        hit = None
        if t.text in _RAW_THREADING and _prev_is_std(tokens, i):
            hit = "std::" + t.text
        elif t.text.startswith("pthread_"):
            hit = t.text
        if hit:
            report(t, subject=hit,
                   message=f"'{hit}' bypasses the lock-rank registry and"
                           " thread-safety annotations; use gm::Mutex /"
                           " gm::MutexLock / gm::CondVar / gm::Thread from"
                           " common/concurrency.hpp")


def rule_include_layering(ctx, source, report):
    layer = source.layer
    if layer is None:
        for sub_pattern, sub_layer in SUBLAYER_DIRS:
            if sub_pattern.search(source.display):
                layer = sub_layer
                break
    if layer is None:
        match = SRC_DIR.search(source.display)
        if match:
            layer = match.group(2)
    allowed = LAYERS.get(layer)
    if allowed is None:
        return
    for inc in source.includes:
        if inc.system or "/" not in inc.path:
            continue
        top = inc.path.split("/", 1)[0]
        if top not in allowed:
            report_line(report, source, inc.line,
                        subject=f"{layer}->{top}",
                        message=f"src/{layer}/ must not include"
                                f" \"{top}/...\"; allowed layers:"
                                f" {', '.join(sorted(allowed))}")


def rule_hotpath_map_iteration(ctx, source, report):
    if ctx.path_filter and not HOTPATH_SCOPE.search(source.display):
        return
    tokens = source.tokens
    map_names = ctx.project.map_names
    for fn in source.functions:
        if not fn.hotpath or fn.body_end is None:
            continue
        body = tokens[fn.body_start:fn.body_end + 1]
        for for_i, colon, close in range_for_clauses(body):
            t = body[for_i]
            name = _range_for_simple_name(body, colon, close)
            if name is not None and name in map_names:
                report(t, subject=f"{fn.qualified}:{name}",
                       message=f"range-for over std::map '{name}' in a"
                               " hotpath-tagged function: node-based"
                               " iteration on the tick path; use the SoA"
                               " bid table / flat arrays")
            elif any(body[k].kind == IDENT and body[k].text in ("map",
                                                                "multimap")
                     and body[k - 1].text == "::"
                     and body[k - 2].text == "std"
                     for k in range(colon + 3, close)):
                report(t, subject=f"{fn.qualified}:inline",
                       message="iteration over a std::map in a"
                               " hotpath-tagged function: node-based"
                               " iteration on the tick path; use the SoA"
                               " bid table / flat arrays")
        for k in range(2, len(body) - 1):
            if (body[k].kind == IDENT and body[k].text == "begin"
                    and body[k - 1].text in (".",)
                    and body[k + 1].text == "("
                    and body[k - 2].kind == IDENT
                    and body[k - 2].text in map_names):
                report(body[k], subject=f"{fn.qualified}:{body[k - 2].text}",
                       message=f"'.begin()' on std::map '{body[k - 2].text}'"
                               " in a hotpath-tagged function: node-based"
                               " iteration on the tick path; use the SoA"
                               " bid table / flat arrays")


def report_line(report, source, line, subject, message):
    """Report against a line with no specific token (include findings)."""

    class _At:
        pass

    at = _At()
    at.line = line
    at.col = 1
    report(at, subject=subject, message=message)
