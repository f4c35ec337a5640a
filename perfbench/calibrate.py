"""Reference loop: a fixed amount of pure-Python work that measures how
fast the machine runs right now.

    python3 perfbench/calibrate.py ROUNDS
    # prints: checksum, loop wall seconds per round, loop CPU seconds per round

The machine this benchmark was built on switches each CPU between a fast
and a slow state (about 1.7x apart) every fraction of a second, and the
share of time spent slow drifts over minutes; the dompoly children slow
down with it, in CPU time as well as wall time. run.py runs this loop in a
fresh child before every workload pass, on the same CPU, and scales
each pass by the round times measured on either side of it. The loop mixes the three
kinds of work the workloads spend their time on, in about equal shares:
big-integer schoolbook products, a bitmask table walk, and big-integer
vector additions over a memo that grows to about 10 MB. It belongs to the
benchmark, not to dompoly, so no change to the program can move it.
"""

import sys
import time

CHECKSUM = 395478079


def reference_work() -> int:
    # Schoolbook products of big integers (the T5 partition products).
    coeffs = [3 ** (i % 40) + i for i in range(64)]
    acc = 0
    for r in range(72):
        out = [0] * (2 * len(coeffs) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        acc = (acc + sum(out) + r) % 2**31
    # A bitmask table walk (the 2^n oracle).
    table = [(i * 2654435761) & 0xFFFFF for i in range(1 << 12)]
    hits = 0
    for m in range(1 << 18):
        if table[m & 4095] | table[(m >> 7) & 4095] == 0xFFFFF:
            hits += 1
    # Big-integer vector additions over a growing memo (the cycle
    # recurrence), a working set of about 10 MB.
    polys = [(0, 1), (0, 2, 1), (0, 3, 3, 1)]
    while len(polys) < 500:
        out = list(polys[-1])
        for older in (polys[-2], polys[-3]):
            for i, c in enumerate(older):
                out[i] += c
        polys.append((0, *out))
    return (acc * 1000003 + hits + sum(polys[-1])) % 2**31


def main(rounds: int):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    checks = {reference_work() for _ in range(rounds)}
    wall = (time.perf_counter() - wall0) / rounds
    cpu = (time.process_time() - cpu0) / rounds
    print(*checks, wall, cpu)


if __name__ == "__main__":
    main(int(sys.argv[1]))
