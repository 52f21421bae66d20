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
# The log is four columns, one row per (consumer, item) pair in that order
print(f"interactions: {len(log)}")
print(f"items: {len(catalog.item_ids)}  genres: {catalog.genres}")

# One row per consumer, in id order: preference vectors, labels and histories
consumers = build_preferences(log, catalog, "Horror")
labels = Counter(consumers.type_labels)
print(f"consumers: {len(consumers)}  labels: {dict(labels)}")

row = consumers.type_labels.index("Niche")
print("\none niche consumer's preference vector:")
for genre, weight in sorted(
    zip(catalog.genres, consumers.preferences[row].tolist()), key=lambda kv: -kv[1]
):
    if weight > 0.005:
        print(f"  {genre:12s} {weight:.3f}")
print(f"  initial history: {len(consumers.histories[row])} items")

provider_labels = classify_providers(catalog, "Horror")
print(f"\nprovider labels: {dict(Counter(provider_labels.values()))}")
item_counts = Counter(catalog.provider_ids)
for pid, label in provider_labels.items():
    print(f"  {pid}: {item_counts[pid]:3d} items -> {label}")
