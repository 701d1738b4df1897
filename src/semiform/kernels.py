"""Gate-evaluation kernel for the three-valued simulator.

`eval_comb` settles the combinational logic of a compiled model in place.
It is one pure-Python loop over `(kind, a, b, c, out)` gate tuples in
topological order, so each gate reads inputs that are already settled.
Nets hold one byte each in a `bytearray`: 0, 1, or 2 for X.  A net whose
`locked` byte is set keeps its value (testbench force semantics).

The tables are flat `bytes` indexed `a * 3 + b` (NOT by `a`) and
implement pessimistic X-propagation: a controlling known input (0 on AND,
1 on OR) forces a known output.
"""

from __future__ import annotations

X = 2

AND3 = bytes((0, 0, 0,
              0, 1, 2,
              0, 2, 2))
OR3 = bytes((0, 1, 2,
             1, 1, 1,
             2, 1, 2))
XOR3 = bytes((0, 1, 2,
              1, 0, 2,
              2, 2, 2))
NOT3 = bytes((1, 0, 2))


def eval_comb(gates, values: bytearray, locked: bytearray) -> None:
    """Settle every gate once, in order; locked outputs are left alone.

    MUX(s, a, b) is a when s is 1 and b when s is 0.  With s unknown it is
    known only when both branches agree on a known value.
    """
    and3, or3, xor3, not3 = AND3, OR3, XOR3, NOT3
    # kind codes are netlist.KIND_CODE: AND 0, OR 1, XOR 2, NOT 3, MUX 4
    for k, a, b, c, o in gates:
        if locked[o]:
            continue
        if k == 0:
            values[o] = and3[values[a] * 3 + values[b]]
        elif k == 1:
            values[o] = or3[values[a] * 3 + values[b]]
        elif k == 2:
            values[o] = xor3[values[a] * 3 + values[b]]
        elif k == 3:
            values[o] = not3[values[a]]
        else:
            s = values[a]
            if s == 1:
                values[o] = values[b]
            elif s == 0:
                values[o] = values[c]
            else:
                va = values[b]
                values[o] = va if va == values[c] else X
