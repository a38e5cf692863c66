"""Renewable-energy scenario: seasonal couplings in an energy system.

Mines the simulated Spanish renewable-energy dataset (RE) for patterns
like the paper's Table VIII P1-P3 -- strong wind driving wind power,
irradiance driving solar power -- and compares the exact miner (E-STPM)
against the approximate one (A-STPM), reporting the accuracy trade-off.

Run: ``python examples/energy_seasonality.py``
"""

from repro import ASTPM, ESTPM
from repro.datasets import load_dataset
from repro.metrics import Timer, accuracy_pct


def main() -> None:
    dataset = load_dataset("RE", profile="bench")
    print(f"Dataset {dataset.name}: {dataset.summary()}")
    print(f"  {dataset.description}")

    params = dataset.params(min_season=6, max_period_pct=0.4, min_density_pct=0.75)
    print(
        f"\nThresholds: maxPeriod={params.max_period} days, "
        f"minDensity={params.min_density}, distInterval={params.dist_interval}, "
        f"minSeason={params.min_season}"
    )

    with Timer() as exact_timer:
        exact = ESTPM(dataset.dseq(), params).mine()
    print(f"\nE-STPM: {len(exact)} patterns in {exact_timer.seconds:.2f}s")

    miner = ASTPM(dataset.dsyb, dataset.ratio, params, dseq=dataset.dseq())
    report = miner.screening()
    with Timer() as approx_timer:
        approx = miner.mine()
    print(
        f"A-STPM: {len(approx)} patterns in {approx_timer.seconds:.2f}s "
        f"(pruned series: {', '.join(report.pruned_series) or 'none'})"
    )
    print(f"A-STPM accuracy vs E-STPM: {accuracy_pct(exact, approx):.1f}%")

    print("\nEnergy couplings found (wind/solar -> generation):")
    shown = 0
    for sp in sorted(exact.patterns, key=lambda sp: -sp.n_seasons):
        events = sp.pattern.events
        if sp.size >= 2 and any("Power" in event for event in events):
            print(f"  {sp.pattern.describe():55s} seasons={sp.n_seasons}")
            shown += 1
        if shown >= 10:
            break


if __name__ == "__main__":
    main()
