"""Build a synthetic marketplace dataset and inspect the derived profiles.

Walks the ingestion layer end to end: generate interactions and a catalog,
derive genre preference vectors, and classify consumers and providers into
Niche and Generic groups.
"""

from collections import Counter

from recmarket.dataset import (
    SyntheticSpec,
    build_preferences,
    classify_providers,
    generate_synthetic,
)

spec = SyntheticSpec(consumers=200, items=150, providers=10, niche_fraction=0.1, seed=7)
log, catalog = generate_synthetic(spec)
print(f"interactions: {len(log.records)}")
print(f"items: {len(catalog.item_ids)}  genres: {catalog.genres}")

seeds = build_preferences(log, catalog, "Horror")
labels = Counter(s.type_label for s in seeds)
print(f"consumers: {len(seeds)}  labels: {dict(labels)}")

niche_example = next(s for s in seeds if s.type_label == "Niche")
print("\none niche consumer's preference vector:")
for genre, weight in sorted(
    zip(catalog.genres, niche_example.preference_vector), key=lambda kv: -kv[1]
):
    if weight > 0.005:
        print(f"  {genre:12s} {weight:.3f}")
print(f"  initial history: {len(niche_example.initial_history)} items")

provider_labels = classify_providers(catalog, "Horror")
print(f"\nprovider labels: {dict(Counter(provider_labels.values()))}")
item_counts = Counter(catalog.provider_ids)
for pid, label in provider_labels.items():
    print(f"  {pid}: {item_counts[pid]:3d} items -> {label}")
