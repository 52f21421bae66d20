"""Train the implicit-feedback factorization and serve slates at every tier.

Shows the collaborative structure the trainer recovers on a tiny co-click
block, then drives the three serving tiers: personalized model scores,
subscriber click popularity, and the seeded global-popularity fallback.
Serving works on catalog rows: row r is the r-th smallest catalog item id.
"""

import numpy as np

from recmarket.dataset import build_log
from recmarket.recommender import (
    CatalogModel,
    RecommenderConfig,
    TrainedModel,
    popular_list,
    serve,
    train,
)

config = RecommenderConfig("demo", latent_factors=8, epochs=10)
item_ids = np.arange(5)  # a five-item catalog whose ids equal their rows

# Two co-click communities; user 0 has not clicked item 2 yet.
snapshot = {
    0: [(0, 0), (1, 0)],
    1: [(1, 0), (2, 0)],
    2: [(0, 0), (2, 0)],
    3: [(3, 0), (4, 0)],
    4: [(3, 0)],
}
model = CatalogModel.align(train(snapshot, config, seed=1), item_ids)
unclicked = np.array([2, 3, 4])
print("scores for user 0 over unclicked items:")
for row, score in zip(unclicked, model.item_factors[unclicked] @ model.user_vector(0)):
    print(f"  item {item_ids[row]}: {score:+.4f}")
print("-> the unclicked item from user 0's own community wins\n")

rng = np.random.default_rng(0)
no_counts = np.zeros(len(item_ids), dtype=np.int64)  # subscriber clicks per catalog row
no_popular = np.array([], dtype=np.intp)

tier, rows = serve(model, 0, unclicked, 2, rng, lambda: no_counts, no_popular)
print(f"known consumer:   {item_ids[rows].tolist()} via {tier.value}")

counts = np.array([0, 0, 9, 4, 0])
tier, rows = serve(model, 99, unclicked, 2, rng, lambda: counts, np.array([0, 1, 2]))
print(f"new consumer:     {item_ids[rows].tolist()} via {tier.value}")

cold = CatalogModel.align(TrainedModel.empty(8), item_ids)
# The fallback ranks items by their ratings in the input log: here, one
# rating per click above. The log is columns: consumers, items, ratings, days.
consumers, items, days = zip(
    *((consumer, item, day) for consumer, entries in snapshot.items() for item, day in entries)
)
log = build_log(consumers, items, [1.0] * len(items), days)
popular = np.searchsorted(item_ids, popular_list(log, 100))
tier, rows = serve(cold, 99, np.arange(5), 2, rng, lambda: no_counts, popular)
print(f"cold recommender: {item_ids[rows].tolist()} via {tier.value}")
