"""Field-kernel rates on seeded operand lists.

For each field, add and mul run over n seeded operand pairs and inv over the
first operands, each pass timed as a whole; the reported rate is the median
over `rounds` passes, in nanoseconds per call.  Results are checked outside
the timed loops: a * inv(a) = 1 and a * b = b * a on every operand, so a
fast wrong kernel fails.
"""

from __future__ import annotations

import random
import statistics
import time

from buildinglab.localfield import parse_field_spec

# metric prefix -> field spec
FIELDS = {
    "F9": "Fq:q=9",
    "F16": "Fq:q=16",
    "Q5_prec12": "Qp:p=5,prec=12",
    "Laurent3_prec8": "Laurent:q=3,prec=8",
    "Laurent4_prec8": "Laurent:q=4,prec=8",
}


def _operands(field, rng, n):
    """Two lists of n nonzero elements; local ones are exact, with
    valuations in -2..2."""
    bounds = {"min_val": -2, "max_val": 2} if field.local else {}
    draws = [field.random_element(rng, nonzero=True, **bounds)
             for _ in range(2 * n)]
    return draws[:n], draws[n:]


def _timed(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def kernel_pass(seed: int, small: bool = False) -> dict:
    n = 200 if small else 1000
    rounds = 3 if small else 5
    rng = random.Random(seed)
    rates, ops = {}, []
    for key, spec in FIELDS.items():
        field = parse_field_spec(spec)
        xs, ys = _operands(field, rng, n)
        pairs = list(zip(xs, ys))
        add, mul, inv = field.add, field.mul, field.inv
        t_add, _ = _timed(lambda: [add(a, b) for a, b in pairs], rounds)
        t_mul, prods = _timed(lambda: [mul(a, b) for a, b in pairs], rounds)
        t_inv, invs = _timed(lambda: [inv(a) for a in xs], rounds)
        rates[f"localfield.{key}.add_ns"] = t_add / n * 1e9
        rates[f"localfield.{key}.mul_ns"] = t_mul / n * 1e9
        rates[f"localfield.{key}.inv_ns"] = t_inv / n * 1e9
        ok = (all(field.eq(mul(a, ia), field.one)
                  for a, ia in zip(xs, invs))
              and all(field.eq(ab, mul(b, a))
                      for ab, (a, b) in zip(prods, pairs)))
        ops.append({"op": f"kernels {spec}", "ok": ok})
    return {"rates": rates, "ops": ops}
