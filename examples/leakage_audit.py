#!/usr/bin/env python3
"""Audit what the two clouds actually observed during a query.

Section 9 proves CQA security relative to explicit leakage profiles
(query pattern and halting depth for S1; per-depth equality patterns for
S2).  This example runs one query with full instrumentation, prints
every class of observation either server made, and verifies that nothing
falls outside the declared profile.

Run:  python examples/leakage_audit.py
"""

import repro
from repro import SecTopK, SystemParams
from repro.core.leakage import ALLOWED_KINDS, audit
from repro.core.results import QueryConfig
from repro.crypto.rng import SecureRandom
from repro.protocols.base import LeakageLog


def main() -> None:
    rng = SecureRandom(3)
    rows = [[rng.randint_below(50) for _ in range(3)] for _ in range(12)]
    scheme = SecTopK(SystemParams.insecure_demo(), seed=8)
    encrypted = scheme.encrypt(rows)

    # The server attaches every query's leakage slice to the result,
    # so the audit needs no access to the context at all.
    server = repro.connect(scheme, encrypted)
    token = server.token([0, 1, 2], k=3)
    result = server.query(token, QueryConfig(variant="elim", engine="eager"))
    print(f"query done: halting depth {result.halting_depth}\n")

    log = LeakageLog()
    log.events = list(result.leakage_events)
    report = audit(log)
    print("observations by kind (count -> licensed by):")
    for kind, count in sorted(report.counts.items()):
        print(f"  {kind:18s} x{count:5d} -> {ALLOWED_KINDS[kind]}")

    assert report.clean, f"UNDECLARED LEAKAGE: {report.unclassified}"
    print("\naudit clean: every observation is covered by the declared")
    print("leakage profile (L_Setup, L1_Query, L2_Query of Section 9)")

    # Show one equality-pattern batch: what S2 actually saw at one depth.
    eq = log.by_kind("eq_bits")
    if eq:
        print(f"\nexample EP_d batch S2 saw (bits of a permuted batch): {eq[-1].payload}")

    # Repeat the query: S1's query-pattern leakage flips to "repeated".
    repeat = server.query(token, QueryConfig(variant="elim"))
    server.close()
    qp = [
        e.payload
        for r in (result, repeat)
        for e in r.leakage_events
        if e.kind == "query_pattern"
    ]
    print(f"query-pattern observations across the two runs: {qp}")
    assert qp == [False, True]


if __name__ == "__main__":
    main()
