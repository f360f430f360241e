#!/usr/bin/env python3
"""Fixture tests for the gmstatic engine (via the gmlint shim), run
under ctest.

Three layers:
  * rule fixtures: every rule has a must-trigger fixture (bad_*) and a
    must-pass fixture (good_*). The bad fixtures must produce at least
    the expected number of findings, all tagged with the right rule;
    the good fixtures must be completely clean.
  * an aggregate pass: the full rule set (legacy + structural) over all
    good fixtures must be clean — rules must not bleed into each
    other's fixtures.
  * lexer goldens: every fixtures/lexer/*.cpp has a committed .tokens
    dump; --dump-tokens output must match byte for byte.

Fixtures are scanned with --no-path-filter so the rules apply
regardless of where the fixture lives, and with --baseline none so the
repo baseline cannot mask fixture findings.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
GMLINT = HERE.parent.parent / "scripts" / "gmlint.py"
FIXTURES = HERE / "fixtures"
LEXER_FIXTURES = FIXTURES / "lexer"

# (fixture, rule, minimum findings expected; 0 == must be clean)
CASES = [
    ("bad_nondeterminism.cpp", "nondeterminism", 3),
    ("good_nondeterminism.cpp", "nondeterminism", 0),
    ("bad_unordered_iteration.cpp", "unordered-iteration", 2),
    ("good_unordered_iteration.cpp", "unordered-iteration", 0),
    ("bad_float_money_eq.cpp", "float-money-eq", 3),
    ("good_float_money_eq.cpp", "float-money-eq", 0),
    ("bad_raw_threading.cpp", "raw-threading", 4),
    ("good_raw_threading.cpp", "raw-threading", 0),
    ("bad_include_layering.cpp", "include-layering", 2),
    ("good_include_layering.cpp", "include-layering", 0),
    ("bad_federation_layering.cpp", "include-layering", 2),
    ("good_federation_layering.cpp", "include-layering", 0),
    ("bad_scenario_layering.cpp", "include-layering", 3),
    ("good_scenario_layering.cpp", "include-layering", 0),
    ("bad_hotpath_map.cpp", "hotpath-map-iteration", 3),
    ("good_hotpath_map.cpp", "hotpath-map-iteration", 0),
    # Structural rules (gmstatic engine).
    ("bad_lock_order.cpp", "lock-order", 3),
    ("good_lock_order.cpp", "lock-order", 0),
    ("bad_guarded_field.cpp", "guarded-field", 3),
    ("good_guarded_field.cpp", "guarded-field", 0),
    ("bad_hotpath_alloc.cpp", "hotpath-allocation", 4),
    ("good_hotpath_alloc.cpp", "hotpath-allocation", 0),
    ("bad_dropped_status.cpp", "dropped-status", 2),
    ("good_dropped_status.cpp", "dropped-status", 0),
    # Interprocedural rules (call graph + fixpoint summaries).
    ("bad_lock_order_transitive.cpp", "lock-order", 1),
    ("bad_status_propagation.cpp", "status-propagation", 4),
    ("good_status_propagation.cpp", "status-propagation", 0),
    ("bad_money_conservation.cpp", "money-conservation", 4),
    ("good_money_conservation.cpp", "money-conservation", 0),
    # A close through a virtual call counts only if every override closes.
    ("bad_money_virtual_close.cpp", "money-conservation", 3),
    # Suppression extents: allow() covers the whole statement, but only
    # for the named rule and never a statement above the directive.
    ("good_multiline_allow.cpp", "float-money-eq", 0),
    ("bad_multiline_allow.cpp", "float-money-eq", 2),
]


def run_gmlint(args):
    return subprocess.run(
        [sys.executable, str(GMLINT), "--baseline", "none"] + args,
        capture_output=True, text=True)


def run_case(fixture, rule, minimum):
    result = run_gmlint(["--no-path-filter", "--rules", rule,
                         str(FIXTURES / fixture)])
    findings = [line for line in result.stdout.splitlines() if line.strip()]
    errors = []
    if minimum == 0:
        if result.returncode != 0 or findings:
            errors.append(f"{fixture}: expected clean, got rc="
                          f"{result.returncode}:\n" + result.stdout)
    else:
        if result.returncode != 1:
            errors.append(f"{fixture}: expected rc=1, got "
                          f"{result.returncode}\n{result.stdout}"
                          f"{result.stderr}")
        if len(findings) < minimum:
            errors.append(f"{fixture}: expected >= {minimum} findings, got "
                          f"{len(findings)}:\n" + result.stdout)
        untagged = [f for f in findings if f"[{rule}]" not in f]
        if untagged:
            errors.append(f"{fixture}: findings with wrong rule tag:\n"
                          + "\n".join(untagged))
    return errors


def run_lock_order_message_check():
    """The inversion report must carry both lock names (so the reader
    can fix the order without re-deriving it) and the fixture path."""
    result = run_gmlint(["--no-path-filter", "--rules", "lock-order",
                         str(FIXTURES / "bad_lock_order.cpp")])
    errors = []
    direct = [line for line in result.stdout.splitlines()
              if "fixture.ledger" in line and "fixture.bus" in line]
    if not direct:
        errors.append("bad_lock_order.cpp: no finding names both"
                      " 'fixture.ledger' and 'fixture.bus':\n"
                      + result.stdout)
    if not any("bad_lock_order.cpp:" in line
               for line in result.stdout.splitlines()):
        errors.append("bad_lock_order.cpp: findings missing the source"
                      " path prefix:\n" + result.stdout)
    if not any("via call to" in line for line in result.stdout.splitlines()):
        errors.append("bad_lock_order.cpp: no finding reports the"
                      " call-graph-expanded inversion ('via call to'):\n"
                      + result.stdout)
    return errors


def run_transitive_chain_check():
    """The depth-2 inversion must spell out the full call chain with an
    arrow between the hops, not just the first callee."""
    result = run_gmlint(["--no-path-filter", "--rules", "lock-order",
                         str(FIXTURES / "bad_lock_order_transitive.cpp")])
    errors = []
    chained = [line for line in result.stdout.splitlines()
               if "via call to" in line and " → " in line
               and "transitive.bus" in line and "transitive.ledger" in line]
    if not chained:
        errors.append("bad_lock_order_transitive.cpp: no finding reports"
                      " the multi-hop chain ('via call to a() → b()') with"
                      " both lock names:\n" + result.stdout)
    return errors


def run_lexer_goldens():
    errors = []
    sources = sorted(LEXER_FIXTURES.glob("*.cpp"))
    if not sources:
        return ["no lexer corpus found under fixtures/lexer/"]
    for source in sources:
        golden = source.with_suffix(".tokens")
        if not golden.exists():
            errors.append(f"{source.name}: missing golden {golden.name}")
            continue
        result = run_gmlint(["--dump-tokens", str(source)])
        if result.returncode != 0:
            errors.append(f"{source.name}: --dump-tokens rc="
                          f"{result.returncode}\n{result.stderr}")
            continue
        if result.stdout != golden.read_text():
            errors.append(f"{source.name}: token dump differs from"
                          f" {golden.name}; regenerate with\n  "
                          f"python3 scripts/gmlint.py --dump-tokens"
                          f" {source} > {golden}")
    return errors


def main():
    failures = []
    for fixture, rule, minimum in CASES:
        failures.extend(run_case(fixture, rule, minimum))
    failures.extend(run_lock_order_message_check())
    failures.extend(run_transitive_chain_check())

    # Every rule over the good fixtures must also be clean: rules must
    # not bleed into each other's fixtures.
    result = run_gmlint(["--no-path-filter", "--all-rules"]
                        + [str(FIXTURES / name) for name, _, minimum in CASES
                           if minimum == 0])
    if result.returncode != 0:
        failures.append("good fixtures not clean under all rules:\n"
                        + result.stdout)

    failures.extend(run_lexer_goldens())

    if failures:
        print("\n".join(failures))
        print(f"gmlint fixture tests: {len(failures)} failure(s)")
        return 1
    lexer_count = len(list(LEXER_FIXTURES.glob("*.cpp")))
    print(f"gmlint fixture tests: {len(CASES)} cases and"
          f" {lexer_count} lexer goldens passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
