"""A deliberately racy ParameterShard for the dynamic harness tests.

``handle`` peeks at the tracker and the staleness record *before*
entering the guarded base implementation — exactly the bug class the
:func:`repro.analysis.race.instrument_server` harness exists to catch.
Loaded via importlib by ``test_race.py``; never imported by product code.
"""

from repro.ps.server import ParameterShard

__all__ = ["RacyParameterShard"]


class RacyParameterShard(ParameterShard):
    def handle(self, msg):
        # BUG (intentional): unguarded reads/writes of lock-protected state.
        stale = self.tracker.staleness(msg.worker_id)
        self.worker_staleness.setdefault(msg.worker_id, []).append(stale)
        return super().handle(msg)
