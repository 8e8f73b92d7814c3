"""Fixture: cross-shard ABBA — the nesting mistake sharding invites.

A sharded store is deadlock-free only while shard locks never nest: the
real :class:`repro.ps.server.ParameterServer` fans out strictly
one shard at a time.  This fixture commits the tempting violation — a
"consistency check" reading a sibling shard *while still holding* its
own lock — in both directions: ``ShardAlpha.apply`` calls
``ShardBeta.total`` under the alpha lock, ``ShardBeta.rebalance`` calls
``ShardAlpha.total`` under the beta lock.  Statically that is one LCK004
cycle; dynamically, ``drive`` exercises both nesting orders so a
:class:`repro.analysis.concurrency.LockRegistry` records the inversion.
"""

from __future__ import annotations

import threading


class ShardAlpha:
    def __init__(self, sibling: "ShardBeta | None" = None) -> None:
        self.values: "list[float]" = []
        self.sibling = sibling
        self._lock = threading.Lock()

    def total(self) -> float:
        with self._lock:
            return sum(self.values)

    def apply(self, value: float) -> float:
        with self._lock:
            self.values.append(value)
            # cross-shard read under our own lock: the inversion seed
            assert self.sibling is not None
            return sum(self.values) + self.sibling.total()


class ShardBeta:
    def __init__(self) -> None:
        self.values: "list[float]" = []
        self.sibling: "ShardAlpha | None" = None
        self._lock = threading.Lock()

    def total(self) -> float:
        with self._lock:
            return sum(self.values)

    def rebalance(self) -> float:
        with self._lock:
            # pull load figures from the sibling shard, lock still held
            assert self.sibling is not None
            moved = self.sibling.total() / 2.0
            self.values.append(moved)
            return moved


def drive(registry) -> "tuple[ShardAlpha, ShardBeta]":
    """Run both nesting orders under a LockRegistry (sequentially — the
    inversion is recorded from order alone, no deadlock required)."""
    beta = ShardBeta()
    alpha = ShardAlpha(beta)
    beta.sibling = alpha
    registry.attach(alpha, "shard-alpha")
    registry.attach(beta, "shard-beta")
    t1 = threading.Thread(target=alpha.apply, args=(1.0,), name="apply")
    t1.start()
    t1.join()
    t2 = threading.Thread(target=beta.rebalance, name="rebalance")
    t2.start()
    t2.join()
    return alpha, beta
