"""Gate-evaluation kernel: table truth, locked nets, MUX with an X select."""

import random

from semiform import kernels
from semiform.kernels import AND3, NOT3, OR3, XOR3

import oracles


def test_tables_match_reference():
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            assert AND3[a * 3 + b] == oracles._AND[(a, b)]
            assert OR3[a * 3 + b] == oracles._OR[(a, b)]
            assert XOR3[a * 3 + b] == oracles._XOR[(a, b)]
        assert NOT3[a] == oracles._NOT[a]


def test_tables_pessimism_corners():
    # controlling values dominate an unknown operand
    assert AND3[0 * 3 + 2] == 0 and AND3[2 * 3 + 0] == 0
    assert OR3[1 * 3 + 2] == 1 and OR3[2 * 3 + 1] == 1
    # non-controlling values do not
    assert AND3[1 * 3 + 2] == 2 and OR3[0 * 3 + 2] == 2
    assert XOR3[1 * 3 + 2] == 2 and XOR3[2 * 3 + 0] == 2


def test_locked_nets_keep_their_value(counter):
    model, _, _ = counter
    cm = model.compile()
    n = len(model.nets)
    rng = random.Random(3)
    values = bytearray(rng.choice((0, 1, 2)) for _ in range(n))
    locked = bytearray(n)
    pin = cm.gates[0][4]
    locked[pin] = 1
    values[pin] = 2
    kernels.eval_comb(cm.gates, values, locked)
    assert values[pin] == 2


def test_mux_unknown_selector_with_equal_branches():
    # s=X but both branches agree on a binary value: result is that value
    gates = ((4, 0, 1, 2, 3),)
    locked = bytearray(4)
    for s, a, b, want in [(2, 1, 1, 1), (2, 0, 0, 0), (2, 1, 0, 2),
                          (2, 2, 2, 2), (0, 2, 1, 1), (1, 1, 2, 1)]:
        values = bytearray([s, a, b, 0])
        kernels.eval_comb(gates, values, locked)
        assert values[3] == want, (s, a, b)
