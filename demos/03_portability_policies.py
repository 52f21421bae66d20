"""One consumer's profile under each portability policy.

The same click-and-switch story plays out four times; what each
recommender can see afterwards differs policy by policy.
"""

from recmarket.portability import (
    PortabilityPolicy,
    ProfileStore,
    on_switch,
    record_click,
    training_view,
)

STORY = [
    ("click", "generic", 101, 0),
    ("click", "generic", 102, 1),
    ("switch", "generic", "niche"),
    ("click", "niche", 201, 2),
    ("switch", "niche", "generic"),
    ("click", "generic", 103, 3),
]

for policy in PortabilityPolicy:
    store = ProfileStore.create(policy, ["generic", "niche"], [1], [101, 102, 103, 201])
    for step in STORY:
        if step[0] == "click":
            _, rec, item, day = step
            record_click(store, 1, rec, item, day)
        else:
            _, src, dst = step
            on_switch(store, 1, src, dst)
    print(f"{policy.value}:")
    for rec in ("generic", "niche"):
        view = training_view(store, rec)
        items = [item for item, _day in view.get(1, ())]
        print(f"  {rec:8s} sees {items}")
    print()
