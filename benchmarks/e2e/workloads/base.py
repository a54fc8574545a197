"""What every workload shares: one instance is one set-up.

The harness only needs ``build()``, ``warm_up()``, ``block(k)``,
``apply_write(op)`` / ``write_units(op)`` and ``close()``.  Blocks are
generated from the seed, in order, outside every timed interval; a block
has a fixed composition (classes, window sizes) and seeded positions, so
two seeds do the same amount of work on different data.
"""

from __future__ import annotations

import random

import harness


class Workload:
    #: permanent name (BENCHMARK.json, README, later issues)
    name = ""
    #: per ``--scale``: data sizes (block composition is the same)
    SCALES = {}
    #: blocks the repeatability self-check runs (about ``run_seconds`` of
    #: timed calls on the seed commit)
    SELFCHECK_BLOCKS = 1
    #: None: a pass runs blocks until its seconds of timed calls are
    #: spent.  A number: a pass of S seconds runs round(S x this) blocks,
    #: frozen, for a workload whose state (and so cost per block) grows
    #: with every block — both sides of a comparison must walk the same
    #: states.
    BLOCKS_PER_SECOND = None

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.scale = self.SCALES[scale]
        self.conn = None

    def rng(self, *parts):
        label = "/".join(str(part) for part in (self.seed, self.name) + parts)
        return random.Random(label)

    # ------------------------------------------------------------ lifecycle
    def build(self):
        """Generate the data from the seed, open ``self.conn``, load and
        index."""
        raise NotImplementedError

    def priming_ops(self):
        """Reads that fill caches a block may not reach (untimed)."""
        return []

    def warm_up(self):
        """Untimed: priming reads, then block 0 (timed passes start at
        block 1).  Results are checked like any other."""
        out = harness.PassResult()
        harness.run_block(self, self.priming_ops() + self.block(0), 0, out)
        return out

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    # --------------------------------------------------------------- blocks
    def block(self, k):
        """Block ``k``'s operations, each read with its oracle answer.
        Called with increasing ``k`` only."""
        raise NotImplementedError

    def apply_write(self, op):
        """Run one write op's public calls; may return what the write
        reported about itself."""
        raise NotImplementedError(f"{self.name} has no write ops")

    def write_units(self, op):
        """Rows a write op carries (1 for a compaction)."""
        return 1

    # ---------------------------------------------------------- traced run
    def ratio_samples(self):
        """Extra per-layer ratios only this workload can measure
        (``{metric name: value}``); run untraced after the passes."""
        return {}
