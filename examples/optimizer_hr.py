#!/usr/bin/env python3
"""Section 4.4's optimization scenario: employees, students and a shared key.

Builds the paper's motivating database — employees and students sharing
a social-security-style key — and shows:

* projection pushing through union (always sound: parametricity of U);
* projection pushing through difference ONLY under the key constraint
  (difference is generic just w.r.t. injective mappings);
* the rewriter declining the same rewrite for a keyless relation, and
  the random-instance verifier catching the rewrite if forced;
* measured work savings as data scales;
* the compiled executor vs the reference interpreter, cold and with a
  warm result cache (docs/EXECUTION.md).

Run with:  python examples/optimizer_hr.py
"""

import random
import statistics
import time

from repro.engine import hr_database, random_database
from repro.optimizer import (
    Difference,
    Project,
    Rewriter,
    Scan,
    Union,
    execute_reference,
    verify_equivalence,
)


def main() -> None:
    rng = random.Random(7)
    db = hr_database(rng, employees=200, students=120, overlap=40)
    print(db)
    print()

    plans = {
        "pi_ssn(employees U students)": Project(
            (0,), Union(Scan("employees"), Scan("students"))
        ),
        "pi_ssn(employees - students)": Project(
            (0,), Difference(Scan("employees"), Scan("students"))
        ),
        "pi_ssn(employees - contractors)": Project(
            (0,), Difference(Scan("employees"), Scan("contractors"))
        ),
    }
    for name, plan in plans.items():
        rewriter = Rewriter(db.catalog)
        optimized = rewriter.optimize(plan)
        before = db.run(plan)
        after = db.run(optimized)
        print(f"plan      : {name}")
        print(f"  original : {plan}   (work {before.work})")
        print(f"  optimized: {optimized}   (work {after.work})")
        for line in rewriter.explain():
            print(f"  applied  : {line}")
        if not rewriter.trace:
            print("  applied  : (nothing — no licensing constraint)")
        assert before.value == after.value
        print(f"  answers agree, work ratio "
              f"{before.work / max(after.work, 1):.2f}x")
        print()

    # Force the unsound rewrite for the keyless pair and let the
    # verifier catch it on random databases.
    unsound = Difference(
        Project((0,), Scan("employees")),
        Project((0,), Scan("contractors")),
    )
    sound_original = plans["pi_ssn(employees - contractors)"]
    random_dbs = [
        random_database(rng, ("employees", "contractors"), arity=3)
        for _ in range(100)
    ]
    counterexample = verify_equivalence(sound_original, unsound, random_dbs)
    print("forcing pi through the keyless difference...")
    if counterexample is not None:
        print("  verifier found a counterexample database — the key "
              "constraint really is what licenses the rewrite:")
        print("   employees  =", counterexample["employees"])
        print("   contractors=", counterexample["contractors"])

    # How the plans actually run: the reference interpreter vs the
    # compiled engine, cold and with Database.run's warm result cache.
    def med(fn, repeats=5):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    print()
    print("executor wall-clock (median of 5), employees=200:")
    plan = plans["pi_ssn(employees - students)"]
    reference_s = med(lambda: execute_reference(plan, db.relations))
    # Result-cache-cold: every run lowers the plan again.
    compiled_s = med(lambda: db.run(plan, use_cache=False))
    db.run(plan)  # warm the result cache
    warm_s = med(lambda: db.run(plan))
    assert db.run(plan).value == execute_reference(plan, db.relations).value
    print(f"  reference interpreter : {reference_s * 1e6:8.1f} us")
    print(f"  compiled (cold)       : {compiled_s * 1e6:8.1f} us")
    print(f"  Database.run (warm)   : {warm_s * 1e6:8.1f} us  "
          f"({reference_s / max(warm_s, 1e-9):.0f}x)")


if __name__ == "__main__":
    main()
