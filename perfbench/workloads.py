"""Seeded op streams for the three benchmark workloads.

Each stream is an endless generator of CLI argument lists, a pure function
of the seed: the same seed yields the same ops in the same order.  The
program under test sees only these lists.

analyze   many ~20 ms ops: `analyze --json`, `analyze --csv`, plain
          `analyze` or `game` on random 1-3 pair specs (a quarter of the
          three-pair specs are built-in cases, so the bundled bounds are
          checked too).  The 3**16 histogram never runs, so this
          workload bypasses any scan or histogram change.
verify    `verify` only: ~1 s ops dominated by the three 3**16 histograms;
          the only workload that runs the auditors.
scan      `scan --orbits 3 --top 10 --phi <random label>`: seconds-long ops
          spent in the scan loop's small reductions, with no Jacobi calls.
"""

import random

from oracle import label_text, spec_text
from s4bell import tables

LABELS = tables.ORBIT_LABELS
ANALYZE_FORMATS = (("--json",), ("--csv",), ())
BUILTIN_SHARE = 0.25  # of three-pair specs
CASE_I = spec_text(tables.CASE_PAIRS["I"])

# Leading ops of the stream that the peak-RSS probe runs in its own process.
PROBE_OPS = {"analyze": 20, "verify": 1, "scan": 1}

# Ops run once before timing, so lazy caches and first-call costs are paid.
WARMUP = {
    "analyze": [["analyze", "--pairs", CASE_I, *flags] for flags in ANALYZE_FORMATS]
    + [["game", "--pairs", CASE_I]],
    "verify": [["verify"]],
    "scan": [["scan", "--orbits", "1", "--top", "10", "--phi", "x01"]],
}


def _analyze(rng, oracle):
    # Blocks of ten ops hold each analyze format with each pair count once,
    # plus one game op, in seeded order, so every seed runs the same mix.
    # Game ops take about half as long as analyze ops; one in ten keeps the
    # median op inside the analyze cluster, where it is steady.
    slots = [(("analyze", *flags), n) for flags in ANALYZE_FORMATS for n in (1, 2, 3)]
    slots.append((("game",), None))
    builtin = [tables.CASE_PAIRS[name] for name in tables.CASE_NAMES]
    while True:
        for (command, *flags), n in rng.sample(slots, len(slots)):
            n = n or rng.randint(1, 3)
            if n == 3 and rng.random() < BUILTIN_SHARE:
                pairs = rng.choice(builtin)
            else:
                # `bell_terms` rejects specs that repeat a term; draw again.
                while True:
                    pairs = tuple((rng.choice(LABELS), rng.choice(LABELS)) for _ in range(n))
                    if not oracle.terms_repeat(pairs):
                        break
            yield [command, "--pairs", spec_text(pairs), *flags]


def _verify(rng, oracle):
    while True:
        yield ["verify"]


def _scan(rng, oracle):
    while True:
        yield ["scan", "--orbits", "3", "--top", "10", "--phi", label_text(rng.choice(LABELS))]


def stream(name, seed, oracle):
    """Endless argv stream of workload `name` for `seed`."""
    return {"analyze": _analyze, "verify": _verify, "scan": _scan}[name](
        random.Random(seed), oracle
    )
