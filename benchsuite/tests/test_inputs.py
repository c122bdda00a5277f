"""Seeded inputs: same seed, same bytes; any seed, same amounts."""

import inputs


def _serve(seed):
    return inputs.serve_stream(seed, warm_singles=150, warm_bursts=20)


def test_same_seed_gives_identical_bytes():
    for seed in (0, 7, 123456):
        assert inputs.canonical_bytes(inputs.sweep_spec(seed)) == inputs.canonical_bytes(
            inputs.sweep_spec(seed)
        )
        assert inputs.canonical_bytes(inputs.sweep_singles(seed, 40)) == (
            inputs.canonical_bytes(inputs.sweep_singles(seed, 40))
        )
        assert inputs.canonical_bytes(_serve(seed)) == inputs.canonical_bytes(_serve(seed))


def test_seeds_change_values_not_amounts():
    specs = [inputs.sweep_spec(seed) for seed in range(5)]
    assert len({inputs.canonical_bytes(spec) for spec in specs}) == 5
    for spec in specs:
        assert sorted(spec["grid"]["n_players"]) == list(inputs.SWEEP_PLAYERS)
        assert sorted(spec["grid"]["n_stages"]) == list(inputs.SWEEP_STAGES)
        tasks = len(spec["grid"]["n_players"]) * len(spec["grid"]["n_stages"])
        assert tasks == 200


def _by_class(stream):
    grouped = {}
    for klass, item in stream:
        grouped.setdefault(klass, []).append(item)
    return grouped


def test_serve_stream_shape_is_seed_independent():
    def shape(stream):
        grouped = _by_class(stream)
        return {
            "schedule": [klass for klass, _ in stream],
            "cold_kinds": sorted(doc["kind"] for doc in grouped["cold"]),
            "cold_nodes": sorted(doc["params"]["n_nodes"] for doc in grouped["cold"]),
            "cold_modes": sorted(doc["params"]["mode"] for doc in grouped["cold"]),
            "bursts": [len(burst) for burst in grouped["burst_cold"]],
            "burst_kinds": [sorted(d["kind"] for d in b) for b in grouped["burst_cold"]],
            "warm_bursts": [len(burst) for burst in grouped["burst_warm"]],
        }

    shapes = [shape(_serve(seed)) for seed in range(6)]
    assert all(s == shapes[0] for s in shapes)
    assert len({inputs.canonical_bytes(_serve(seed)) for seed in range(6)}) == 6
    assert {k: len(v) for k, v in _by_class(_serve(0)).items()} == {
        "cold": 100, "warm": 150, "burst_cold": inputs.SERVE_COLD_BURSTS,
        "burst_warm": 20,
    }


def test_cold_documents_are_unseen_and_warm_ones_repeat_answered_ones():
    answered, answered_bursts, cold_seen = set(), set(), []
    for klass, item in _serve(3):
        if klass == "cold":
            cold_seen.append(inputs.canonical_bytes(item))
            answered.add(cold_seen[-1])
        elif klass == "warm":
            assert inputs.canonical_bytes(item) in answered
        elif klass == "burst_cold":
            encoded = [inputs.canonical_bytes(doc) for doc in item]
            assert not set(encoded) & answered_bursts
            answered_bursts.update(encoded)
        else:
            encoded = [inputs.canonical_bytes(doc) for doc in item]
            assert set(encoded) <= answered_bursts
            assert len(set(encoded)) == len(encoded) - inputs.SERVE_WARM_DUPLICATES
    assert len(set(cold_seen)) == len(cold_seen)


def test_interleave_spreads_classes_and_delays_late_ones():
    order = inputs.interleave({"a": 2, "b": 4}, late=("b",))
    assert order == ["a", "b", "a", "b", "b", "b"]
    assert sorted(inputs.interleave({"x": 3, "y": 7})) == ["x"] * 3 + ["y"] * 7


def test_sweep_singles_are_distinct_tasks():
    singles = inputs.sweep_singles(11, 40)
    assert len({single["params"]["seed"] for single in singles}) == 40
    assert all(
        {k: v for k, v in single["params"].items() if k != "seed"}
        == inputs.SWEEP_SINGLE_PARAMS
        for single in singles
    )
