"""A fixed pure-Python workload that times the host, not the program.

    python3 perfbench/reference.py

run.py starts it in a fresh process just before every timed command and
divides the command's wall time by this one's.  The host this benchmark
runs on drifts between faster and slower states for seconds to minutes;
a command and the reference run next to it see the same state, so their
ratio stays put while either time alone does not.

The work resembles the CLI's own: interpreter start, dicts of lists,
tuples as keys, sorting and seeded random draws.  It imports nothing from
the package, so no change to the program moves it.  It prints one line,
which run.py checks against ``EXPECTED``.
"""

import random

EXPECTED = "4063 21091.85"


def main():
    rng = random.Random(12345)
    adj = {}
    for i in range(40000):
        adj.setdefault(rng.randrange(5000), []).append((i, rng.random()))
    total = 0.0
    keys = {}
    for _round in range(2):
        for lst in adj.values():
            ordered = sorted(lst, key=lambda t: t[1])
            total += ordered[0][1]
            key = tuple(sorted((x % 7, y > 0.5) for x, y in ordered[:6]))
            keys[key] = keys.get(key, 0) + 1
        for _ in range(20000):
            v = rng.randrange(5000)
            if v in adj:
                total += adj[v][rng.randrange(len(adj[v]))][1]
    print(len(keys), round(total, 3))


if __name__ == "__main__":
    main()
