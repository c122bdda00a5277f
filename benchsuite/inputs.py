"""Seeded inputs: the sweep's campaign specs and the serve request stream.

Every amount is fixed; the seed draws only values and order.  The same
seed gives byte-identical inputs, and every seed gives the same task
count, the same request classes and kinds, and the same burst sizes.
The program receives only these generated files and request documents.

Costs are kept independent of the seed where the seed would otherwise
move a median: the sweep's axes always hold the same values (the seed
orders them and draws the ``[seeds] base``), and serve documents take
their sizes from fixed spreads and their modes and presets from an even
deal (the seed pairs them, and draws windows, counts and order).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Tuple

#: Sweep: the ``convergence`` experiment over players x stages
#: (20-45 ms a task), 5 x 40 = 200 tasks.
SWEEP_PLAYERS = (6, 7, 8, 9, 10)
SWEEP_STAGES = tuple(range(10, 50))

#: Sweep: single-task campaigns, each a new task of one fixed size.
SWEEP_SINGLE_PARAMS = {"n_players": 8, "n_stages": 20}

#: Serve: cold single documents per kind.
SERVE_COLD_KINDS = (("equilibrium", 80), ("best_response", 10), ("curve", 10))

#: Serve: list POSTs; every cold burst holds the same kinds and shapes.
SERVE_BURST_FIXED_POINT = 12
SERVE_BURST_MEAN_FIELD = 4
SERVE_BURST_SIZE = SERVE_BURST_FIXED_POINT + SERVE_BURST_MEAN_FIELD
SERVE_COLD_BURSTS = 24
SERVE_WARM_DUPLICATES = 4

_MODES = ("basic", "rts_cts")
_PRESETS = ("default", "80211b")


def canonical_bytes(document: Any) -> bytes:
    """The byte form the benchmark writes its inputs in."""
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()


def sweep_spec(seed: int) -> Dict[str, Any]:
    """The seeded 200-task cold campaign."""
    rng = random.Random(f"sweep-spec-{seed}")
    players = list(SWEEP_PLAYERS)
    stages = list(SWEEP_STAGES)
    rng.shuffle(players)
    rng.shuffle(stages)
    return {
        "name": "bench-sweep",
        "experiment": "convergence",
        "grid": {"n_players": players, "n_stages": stages},
        "seeds": {
            "parameter": "seed",
            "base": rng.randrange(1, 2**31),
            "policy": "spawn",
        },
    }


def sweep_singles(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` one-task campaigns, each a task no other spec holds."""
    rng = random.Random(f"sweep-singles-{seed}")
    seeds = rng.sample(range(1, 2**31), count)
    return [
        {
            "name": f"bench-single-{index}",
            "experiment": "convergence",
            "params": dict(SWEEP_SINGLE_PARAMS, seed=task_seed),
        }
        for index, task_seed in enumerate(seeds)
    ]


def _spread(count: int, low: int, high: int) -> List[int]:
    """``count`` integers spread evenly over ``[low, high]``."""
    return [low + (index * (high - low + 1)) // count for index in range(count)]


#: Every (mode, preset, flag) combination, dealt evenly to the cold
#: singles so every seed asks the same mix.
_COMBOS = [
    (mode, preset, flag)
    for mode in _MODES for preset in _PRESETS for flag in (False, True)
]


def _cold_singles(rng: random.Random) -> List[Dict[str, Any]]:
    documents: List[Dict[str, Any]] = []
    for kind, count in SERVE_COLD_KINDS:
        nodes = _spread(count, 2, 60)
        combos = [_COMBOS[index % len(_COMBOS)] for index in range(count)]
        while True:
            rng.shuffle(combos)
            if len(set(zip(nodes, combos))) == count:
                break
        for n_nodes, (mode, preset, flag) in zip(nodes, combos):
            params: Dict[str, Any] = {
                "n_nodes": n_nodes,
                "mode": mode,
                "preset": preset,
            }
            if kind == "equilibrium":
                params["ignore_cost"] = flag
            elif kind == "best_response":
                params["discount"] = round(rng.uniform(0.5, 0.95), 4)
            else:
                params["ignore_cost"] = flag
                params["windows"] = sorted(rng.sample(range(16, 1024), 8))
            documents.append({"kind": kind, "params": params})
    rng.shuffle(documents)
    return documents


def _cold_burst(rng: random.Random) -> List[Dict[str, Any]]:
    documents: List[Dict[str, Any]] = [
        {
            "kind": "fixed_point",
            "params": {"windows": [rng.randrange(16, 1024) for _ in range(10)]},
        }
        for _ in range(SERVE_BURST_FIXED_POINT)
    ]
    for _ in range(SERVE_BURST_MEAN_FIELD):
        documents.append(
            {
                "kind": "mean_field",
                "params": {
                    "type_windows": sorted(rng.sample(range(16, 1024), 3)),
                    "type_counts": [rng.randrange(1, 400) for _ in range(3)],
                },
            }
        )
    rng.shuffle(documents)
    return documents


def interleave(counts: Dict[str, int], late: Tuple[str, ...] = ()) -> List[str]:
    """Class labels with each class spread evenly over the sequence.

    Timings of one class are then spread over the whole session instead
    of one block of it, so a slow spell of the host lands on every class
    alike instead of on whichever block it happened to hit.  Classes in
    ``late`` start one step into their spacing, after the first of the
    others (warm operations need something answered to repeat).
    """
    slots = [
        ((index + (1 if label in late else 0)) / count, order, label)
        for order, (label, count) in enumerate(counts.items())
        for index in range(count)
    ]
    return [label for _, _, label in sorted(slots)]


def serve_stream(seed: int, warm_singles: int, warm_bursts: int) -> List[Tuple[str, Any]]:
    """The seeded request stream: ``(class, document or list)`` in send order.

    * ``cold``: unseen documents, one per POST (80 ``equilibrium`` over
      n_nodes 2-60 x mode x preset x ignore_cost, 10 ``best_response``,
      10 ``curve``);
    * ``warm``: repeats of cold singles answered earlier in the stream;
    * ``burst_cold``: list POSTs of unseen ``fixed_point`` and
      ``mean_field`` documents;
    * ``burst_warm``: list POSTs of answered burst documents, with
      duplicates inside each list.

    The classes are interleaved (:func:`interleave`); the schedule of
    classes is the same for every seed.
    """
    rng = random.Random(f"serve-stream-{seed}")
    cold_singles = iter(_cold_singles(rng))
    cold_bursts = iter([_cold_burst(rng) for _ in range(SERVE_COLD_BURSTS)])
    answered: List[Dict[str, Any]] = []
    answered_bursts: List[Dict[str, Any]] = []
    steps: List[Tuple[str, Any]] = []
    schedule = interleave(
        {
            "cold": sum(count for _, count in SERVE_COLD_KINDS),
            "burst_cold": SERVE_COLD_BURSTS,
            "warm": warm_singles,
            "burst_warm": warm_bursts,
        },
        late=("warm", "burst_warm"),
    )
    for klass in schedule:
        if klass == "cold":
            document = next(cold_singles)
            answered.append(document)
            steps.append((klass, document))
        elif klass == "burst_cold":
            burst = next(cold_bursts)
            answered_bursts.extend(burst)
            steps.append((klass, burst))
        elif klass == "warm":
            steps.append((klass, rng.choice(answered)))
        else:
            distinct = rng.sample(
                answered_bursts, SERVE_BURST_SIZE - SERVE_WARM_DUPLICATES
            )
            burst = distinct + rng.sample(distinct, SERVE_WARM_DUPLICATES)
            rng.shuffle(burst)
            steps.append((klass, burst))
    return steps
