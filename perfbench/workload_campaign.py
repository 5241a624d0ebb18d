"""``campaign``: probe -> schedule -> measure rounds of ``run_campaign``.

Each round is one ``run_campaign`` call on the synthetic PlanetLab with
the fluid simulator pricing every transfer (``measure_engine=
"simulator"``, vectorized ``run_batch``).  No sockets are involved: NWS
probing, minimax scheduling and the fluid kernel do all the work.

The topology is fixed (``TOPOLOGY_SEED``) and the run's seed draws the
order in which the rounds cycle through a small set of campaign seeds.
Round cost depends on the topology far more than on the campaign seed:
the lockstep batch runs until its slowest chain completes, and across
PlanetLab seeds one round's wall time ranged over 10x, so a seed-drawn
topology would measure the input rather than the program.  For the same
reason every run cycles through the same set, which a 30 s run covers
all or nearly all of, rather than a seed-drawn subset: the rounds of
different campaign seeds differ in cost by up to 1.6x.

Every round is checked against a digest recorded for its campaign seed
(coverage, measurement count and per-case priced bandwidth), so a
faster campaign that computes something different fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from statistics import median

from repro.testbed import planetlab
from repro.testbed.experiment import CampaignConfig, CampaignResult, run_campaign
from repro.testbed.planetlab import PlanetLabConfig
from repro.testbed.workload import WorkloadConfig

from common import Deadline, Inputs

TOPOLOGY_SEED = 0
#: campaign seeds 0 .. CAMPAIGN_SEEDS-1 have a recorded digest; a run's
#: rounds cycle through all of them, about one cycle per 30 s
CAMPAIGN_SEEDS = 6
#: 4 probes per site pair rather than the default 16 keep a round near
#: 5 s, so a run holds several rounds and set-ups are timed between them
#: at several moments of the run
CONFIG = CampaignConfig(
    measure_engine="simulator",
    max_cases=60,
    iterations=1,
    probes_per_pair=4,
    workload=WorkloadConfig(min_exponent=0, max_exponent=1),
)
#: a few-site campaign run during set-up so lazy imports and first-call
#: costs are paid before timing
WARMUP_TOPOLOGY = PlanetLabConfig(n_sites=4)
WARMUP_CONFIG = CampaignConfig(
    measure_engine="simulator",
    max_cases=2,
    iterations=1,
    probes_per_pair=2,
    workload=WorkloadConfig(min_exponent=0, max_exponent=1),
)
DIGESTS = os.path.join(os.path.dirname(__file__), "campaign_digests.json")


def digest(result: CampaignResult) -> str:
    """Fingerprint of what a round computed (not how fast)."""
    h = hashlib.sha256()
    h.update(f"{result.coverage:.12g}|{len(result.measurements)}".encode())
    for m in result.measurements:
        h.update(
            f"|{m.src},{m.dst},{m.size},{int(m.use_lsl)},"
            f"{'-'.join(m.route)},{m.bandwidth:.10g}".encode()
        )
    return h.hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


@dataclass
class State:
    #: the campaign seeds in the order this run's rounds visit them
    order: list[int]
    testbed: object
    digests: dict[str, str]


@dataclass
class Round:
    campaign_seed: int
    seconds: float
    transfers: int
    priced_bytes: int
    ok: bool
    error: str = ""


@dataclass
class Outcome:
    rounds: list[Round] = field(default_factory=list)
    wall: float = 0.0
    checkpoint: dict | None = None
    errors: list = field(default_factory=list)

    @property
    def ops(self) -> list:
        return self.rounds


def setup(seed: int) -> State:
    warm = planetlab.generate_planetlab(WARMUP_TOPOLOGY, seed=TOPOLOGY_SEED)
    run_campaign(warm, WARMUP_CONFIG, seed=0)
    testbed = planetlab.generate_planetlab(seed=TOPOLOGY_SEED)
    order = Inputs(seed, "campaign").permutation(list(range(CAMPAIGN_SEEDS)))
    return State(order, testbed, load_digests())


def run_round(state: State, campaign_seed: int) -> tuple[CampaignResult, float]:
    t0 = time.perf_counter()
    result = run_campaign(state.testbed, CONFIG, seed=campaign_seed)
    return result, time.perf_counter() - t0


def run(state: State, deadline: Deadline, tracer=None) -> Outcome:
    out = Outcome()
    while not deadline.expired():
        campaign_seed = state.order[len(out.rounds) % len(state.order)]
        result, wall = run_round(state, campaign_seed)
        expected = state.digests.get(str(campaign_seed))
        got = digest(result)
        error = "" if got == expected else (
            f"campaign seed {campaign_seed}: digest {got[:12]} != "
            f"recorded {str(expected)[:12]}"
        )
        out.rounds.append(Round(
            campaign_seed, wall, len(result.measurements),
            sum(m.size for m in result.measurements), not error, error,
        ))
        if out.checkpoint is None and tracer is not None:
            out.checkpoint = {"spans": tracer.snapshot()}
    out.wall = deadline.measured()
    return out


def end_to_end(out: Outcome) -> dict[str, float]:
    walls = [r.seconds for r in out.rounds]
    return {
        "ops_per_s": sum(r.transfers for r in out.rounds) / sum(walls),
        "op_ms.p50": 1e3 * median(walls),
        "MBps": sum(r.priced_bytes for r in out.rounds) / sum(walls) / 1e6,
    }


def layer_extras(out: Outcome, untraced: Outcome) -> dict[str, float]:
    return {"checkpoint_ops": 1, "checkpoint_observed": 0}
