"""Smart-city scenario: storms, congestion and incidents.

Mines the simulated NYC traffic dataset (SC) for the paper's Table VIII
P8-P11 style patterns (rain/wind -> lane blockages and incidents), then
runs the E-STPM pruning ablation (Fig. 15/16): NoPrune vs Apriori vs
Trans vs All, showing that the combined pruning is fastest while all
variants return identical results.

Run: ``python examples/traffic_incidents.py``
"""

from repro import ESTPM
from repro.core.prune import ALL_VARIANTS
from repro.datasets import load_dataset
from repro.metrics import Timer


def main() -> None:
    dataset = load_dataset("SC", profile="bench")
    print(f"Dataset {dataset.name}: {dataset.summary()}")

    params = dataset.params(min_season=6, max_period_pct=0.4, min_density_pct=0.75)
    result = ESTPM(dataset.dseq(), params).mine()
    print(f"\n{len(result)} frequent seasonal patterns")

    print("\nWeather -> traffic incident couplings:")
    shown = 0
    for sp in sorted(result.patterns, key=lambda sp: (-sp.size, -sp.n_seasons)):
        if sp.size >= 2 and any(
            event.startswith(("LaneBlocked", "FlowIncident", "Congestion"))
            for event in sp.pattern.events
        ):
            print(f"  {sp.pattern.describe():60s} seasons={sp.n_seasons}")
            shown += 1
        if shown >= 10:
            break

    print("\nPruning ablation (Fig. 15/16 shape):")
    reference = None
    for pruning in ALL_VARIANTS:
        with Timer() as timer:
            mined = ESTPM(dataset.dseq(), params, pruning).mine()
        keys = mined.pattern_keys()
        if reference is None:
            reference = keys
        assert keys == reference, "prunings are lossless"
        print(f"  {pruning.label:8s} {timer.seconds:6.2f}s  ({len(mined)} patterns)")


if __name__ == "__main__":
    main()
