#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Runs a few operations of each kind, confirms their true outputs pass,
then plants one wrong constant, one wrong decision, wrong Monte Carlo
rates and wrong oracle values, and confirms each is caught. Exits 0 when
every planted error is caught and no true output is flagged.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from run import _no_span  # noqa: E402


def _caught(op, out):
    fault, problems = op.check(out)
    return fault or bool(problems)


def _replace_cell(text, proc, metric, value):
    lines = text.splitlines()
    for j, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) == 7 and parts[1] == proc and parts[2] == metric:
            parts[3] = format(value, ".10g")
            lines[j] = ",".join(parts)
    return "\n".join(lines) + "\n"


def main():
    rng = np.random.default_rng(7)
    results = []

    def expect(name, caught, want):
        results.append((name, caught == want))
        print(f"{'ok  ' if caught == want else 'FAIL'} {name}: "
              f"{'caught' if caught else 'passed'}")

    # constants: a true set passes; one constant 1e-5 high, a Table 1
    # entry 1e-3 off, or a wrong rejection count is caught
    op = wl.ConstantSetOp("gen_simes", 20, 2, 0.05, "equicorr", 0.4, wl.pvalues(rng, 20))
    values, padded, num, rejected = op.run(_no_span)
    expect("true equicorrelated set", _caught(op, (values, padded, num, rejected)), False)
    bad = list(values)
    bad[5] *= 1 + 1e-5
    bad_padded = tuple(bad[max(i, 2) - 2] for i in range(1, 21))
    expect("constant planted 1e-5 high",
           _caught(op, (tuple(bad), bad_padded, num, rejected)), True)
    expect("rejection count planted one high",
           _caught(op, (values, padded, num + 1, rejected)), True)
    t1 = wl.Table1Op(0.25, 2, wl.pvalues(rng, 10))
    values, padded, num, rejected = t1.run(_no_span)
    expect("true Table 1 set", _caught(t1, (values, padded, num, rejected)), False)
    shifted = tuple(v + 1e-3 for v in values)
    expect("Table 1 set planted 1e-3 high",
           _caught(t1, (shifted, tuple(shifted[max(i, 2) - 2] for i in range(1, 11)),
                        num, rejected)), True)

    # studies: a true Table 2 cell passes; a rate 5 SE off, a k-FWER above
    # its bound and a broken n1 = 0 identity are caught
    with tempfile.TemporaryDirectory() as work:
        cell = next(op for op in wl.build_smalln(1, [0], work)[0] if op.table2_ref is not None)
        code, text = cell.run(_no_span)
        expect("true Table 2 cell", _caught(cell, (code, text)), False)
        se = (cell.table2_ref * (1 - cell.table2_ref) / cell.reps) ** 0.5
        planted = _replace_cell(text, "gen_simes", "partial_rejections",
                                cell.table2_ref + 5 * se)
        expect("Table 2 rate planted 5 SE high", _caught(cell, (code, planted)), True)
        kfwer_high = _replace_cell(text, "gen_simes", "kfwer", 0.08)
        kfwer_high = _replace_cell(kfwer_high, "gen_simes", "power_at_least_k", 0.08)
        expect("k-FWER planted above alpha + 4 SE", _caught(cell, (code, kfwer_high)), True)
        broken = _replace_cell(text, "gen_simes", "power_at_least_k", 0.5)
        expect("kfwer != power_at_least_k at n1 = 0", _caught(cell, (code, broken)), True)

    # oracle: true outputs pass; an exact value 1e-7 off and a Monte Carlo
    # rate 5 SE off are caught
    ops = wl.build_oracle(1, [0], None)[0]
    outs = [(op, op.run(_no_span)) for op in ops]
    expect("true oracle round", any(wl.oracle_check(outs).values()), False)
    exact = next(j for j, (op, _) in enumerate(outs) if op.call == "exact")
    op, out = outs[exact]
    planted = list(outs)
    planted[exact] = (op, type(out)(out.value + 1e-7, 0.0, 0, out.method))
    expect("exact quadrature planted 1e-7 off", any(wl.oracle_check(planted).values()), True)
    mc = next(j for j, (op, _) in enumerate(outs)
              if op.call == "union_mc" and op.model.kind == "independent")
    op, out = outs[mc]
    se = (op.alpha * (1 - op.alpha) / op.reps) ** 0.5
    planted = list(outs)
    planted[mc] = (op, type(out)(op.alpha + 5 * se, out.std_error, out.reps, out.method))
    expect("union probability planted 5 SE high", any(wl.oracle_check(planted).values()), True)

    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-checks as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
