"""The benchmark's workloads: which figure, at which size, and why.

Each workload is one figure sweep run through the public scenario API the
``repro scenario run`` command uses.  Graph size and trial count are kept
as the figure would run them, because together they decide which layer is
hot: the graph size decides the estimation backend, and ``trials >= 2``
routes a point through the cross-trial batched collection (the CLI default
is ``trials=3``).  Only the swept grid is trimmed, to bound the run length;
every task seeds itself from its own key, so a trimmed point computes the
same gain it has in the full figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``digest`` is the sha256 of the per-task gains (float64, task order) of
    a cold run at seed 0.  Every run at seed 0 must reproduce it; at other
    seeds the legs of one run must only agree with each other.

    ``pool_jobs``, when set, adds one traced cold leg on that many workers
    to the traced run: the pool, shared-memory export and chunk dispatch
    are measured there, and its gains must match the serial legs'.
    """

    name: str
    scenario: str
    dataset: str
    scale: float
    trials: int
    jobs: int
    values: Tuple[float, ...]
    digest: str
    why: str
    pool_jobs: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="cc-gplus",
            scenario="fig9",
            dataset="gplus",
            scale=0.0312,
            trials=2,
            jobs=1,
            values=(7.0, 8.0),
            digest="f36ed4577ba65bcb5e00d019a17c64a6b02be92a360c31ee27fd737a30836fc4",
            why=(
                "clustering on a 3.4k-node gplus surrogate: packed triangle "
                "counting in batched collection and estimation dominate"
            ),
        ),
        Workload(
            name="degree-facebook",
            scenario="fig6",
            dataset="facebook",
            scale=1.0,
            trials=3,
            jobs=1,
            values=(1.0,),
            digest="6c89c3fff68075af01cde6a66941abcf231c335e53823fdb6fd0b851616c08fa",
            why=(
                "degree centrality on 4k-node facebook: batched collection, "
                "overrides and craft do the work, estimation is near zero; "
                "its traced run adds a two-worker pool leg"
            ),
            pool_jobs=2,
        ),
        Workload(
            name="defense-facebook",
            scenario="fig13b",
            dataset="facebook",
            scale=0.5,
            trials=2,
            jobs=1,
            values=(0.001, 0.05, 0.15),
            digest="bc7fb13bc3990d736a1138ef5b6806ed65e677d1dc5fbb27391327b11d821f80",
            why=(
                "Detect2/Naive2 against clustering RVA: the only workload "
                "running defenses and a full recount on the induced subgraph"
            ),
        ),
    )
}
