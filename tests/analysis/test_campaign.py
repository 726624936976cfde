"""The campaign harness's outputs, pinned.

``jets explore``, ``jets chaos`` and ``jets resume --verify`` build,
drain and judge their runs through one module; these values pin what
the three campaigns produce, so moving code between them cannot move a
digest, a fault count or a journal byte unnoticed.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

import repro.core.tasklist as tasklist
import repro.core.worker as worker
from repro.analysis.explore import ExploreConfig, run_schedule
from repro.core.chaos import ChaosConfig, run_chaos_plan
from repro.core.resume import ResumeCampaignConfig, crash_equivalence_campaign


def _reset_id_counters():
    """Fresh module-global id streams, as in a new interpreter."""
    worker._worker_seq = itertools.count()
    tasklist._spec_seq = itertools.count()


#: ``CanonicalDigest`` of explore schedules 0-7 of the default config.
EXPLORE_DIGESTS = [
    "91c65f5ed1006a5bf78768a6e565d6f6877e99ef80e9116db95b66dc91a1d8f6",
    "b541569d94689e579d8b93b72ef9cdb16efe85e928990c73af88ccdf17ec11d3",
    "91a5075f7ea2185fe60a676648ff5988be067fa63015ab0a8aee616070d45a37",
    "273d1db17bc9ba5e28c9596f23701de0d51a8217e0ffee952574eabe7ad4e495",
    "03724fb5410708ffcdf3e3beee7440502692df60ba3b8f7dba16190d0169b06a",
    "31738cf64e41bcae8746fcfa6e54ff9dd1ea5e13efce2f5eb049e936497ebd23",
    "71ec5acba3c210c43be0f2f4e107f885f3eaaa69ac5af0739675d7835603319d",
    "c2babfb7d370c0a5c35d1c4c004e37c554603653580f3dc475f822b45e382183",
]

#: Chaos plans 0-4 per base seed: (seed, injected kinds, respawns,
#: drained, wire_count, jobs_ok, jobs_failed, jobs_submitted).
CHAOS_PLANS = {
    0: [
        (0, {"worker_kill": 1, "straggler": 3, "net_drop": 1},
         1, True, 148, 15, 0, 15),
        (1, {"proxy_kill": 1}, 0, True, 150, 15, 0, 15),
        (2, {"straggler": 17, "net_drop": 38}, 52, True, 536, 15, 0, 15),
        (3, {"net_delay": 1, "staging": 1}, 0, True, 132, 15, 0, 15),
        (4, {"net_delay": 1}, 0, True, 132, 15, 0, 15),
    ],
    11: [
        (11000033,
         {"worker_kill": 25, "proxy_kill": 4, "straggler": 33, "net_drop": 27},
         50, True, 592, 14, 1, 15),
        (11000034, {"proxy_kill": 1}, 0, True, 150, 15, 0, 15),
        (11000035, {"straggler": 15, "net_drop": 42}, 57, True, 600, 15, 0, 15),
        (11000036,
         {"net_drop": 19, "net_delay": 23, "partition": 14, "staging": 24},
         34, True, 631, 15, 0, 15),
        (11000037, {"net_delay": 5, "partition": 2}, 1, True, 188, 15, 0, 15),
    ],
}

#: sha256 of the baseline journal of a 30-job crash-equivalence campaign.
BASELINE_JOURNALS = {
    0: "37fa8fee8a2e7000ebf67654c13d6fe61bb0ad81cd70e00c9ee1b432aefc241d",
    3: "7d3c040e5411a7c045bc469b3a0cf04690247c81b0068563e35f270ad5e2043d",
}


def test_explore_digests_are_pinned():
    _reset_id_counters()
    digests = [run_schedule(ExploreConfig(), i).digest for i in range(8)]
    assert digests == EXPLORE_DIGESTS


@pytest.mark.parametrize("base", sorted(CHAOS_PLANS))
def test_chaos_plan_counts_are_pinned(base):
    _reset_id_counters()
    rows = []
    for index in range(5):
        r = run_chaos_plan(ChaosConfig(seed=base), index)
        rows.append((
            r.seed, {k: v for k, v in r.injected.items() if v}, r.respawns,
            r.drained, r.wire_count, r.jobs_ok, r.jobs_failed,
            r.jobs_submitted,
        ))
    assert rows == CHAOS_PLANS[base]


@pytest.mark.parametrize("seed", sorted(BASELINE_JOURNALS))
def test_crash_campaign_baseline_journal_is_pinned(seed, tmp_path):
    _reset_id_counters()
    config = ResumeCampaignConfig(
        jobs=30, crash_points=0, seed=seed, journal_dir=str(tmp_path)
    )
    assert crash_equivalence_campaign(config).ok
    raw = (tmp_path / "baseline.journal").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == BASELINE_JOURNALS[seed]
