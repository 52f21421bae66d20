"""Profile storage under the four portability policies.

A profile is a consumer's click history as held by one or more
recommenders. The policy decides where clicks are written, what a
recommender can see at training time, and what happens to the data when a
consumer switches recommenders. Every mutation can be mirrored to an audit
trail of JSON-serializable events; replaying the trail reconstructs the
store exactly, which the test suite uses as an oracle.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping

Interaction = tuple[int, int]  # (item_id, day_index)


class PortabilityPolicy(enum.Enum):
    """Exclusivity x permanence variants for consumer profiles."""

    ALGORITHM_SPECIFIC = "algorithm_specific"  # exclusive, permanent
    COLD_START = "cold_start"  # exclusive, non-permanent
    USER_OWNERSHIP = "user_ownership"  # non-exclusive, non-permanent
    UNIVERSAL = "universal"  # non-exclusive, permanent

    @property
    def exclusive(self) -> bool:
        return self in (self.ALGORITHM_SPECIFIC, self.COLD_START)

    @property
    def permanent(self) -> bool:
        return self in (self.ALGORITHM_SPECIFIC, self.UNIVERSAL)

    @property
    def shared_layout(self) -> bool:
        return self is self.UNIVERSAL


# json.dumps(..., sort_keys=True) builds this encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode


@dataclass
class AuditTrail:
    """Append-only event log, held as its newline-delimited JSON lines.

    Each line is exactly ``json.dumps(event, sort_keys=True) + "\n"``, so a
    trail is written to disk as it is held, and a suite's scenarios share the
    line strings of the prefix they branch from.
    """

    lines: list[str] = field(default_factory=list)

    def emit(self, event: str, **payload: object) -> None:
        self.lines.append(_encode({"event": event, **payload}) + "\n")

    def click(self, consumer: int, recommender: str, item: int, day: int) -> None:
        """``emit("click", ...)`` through a fixed template: clicks are most of
        a trail, and the seed history's clicks are audited in set-up."""
        self.lines.append(
            f'{{"consumer": {consumer}, "day": {day}, "event": "click", '
            f'"item": {item}, "recommender": {encode_basestring_ascii(recommender)}}}\n'
        )

    @property
    def events(self) -> list[dict]:
        """The events decoded from the lines; editing them changes nothing."""
        return [json.loads(line) for line in self.lines]

    @staticmethod
    def from_jsonl(text: str) -> "AuditTrail":
        return AuditTrail([line + "\n" for line in text.splitlines() if line.strip()])


@dataclass
class ProfileStore:
    """Single-writer interaction store.

    Under the Universal policy both recommenders observe one shared map; all
    other policies keep one map per recommender. Interaction lists stay
    ordered by day index.
    """

    shared: dict[int, list[Interaction]] = field(default_factory=dict)
    per_recommender: dict[str, dict[int, list[Interaction]]] = field(default_factory=dict)
    audit: AuditTrail | None = None

    @classmethod
    def create(
        cls,
        policy: PortabilityPolicy,
        recommender_ids: Iterable[str],
        audit: AuditTrail | None = None,
    ) -> "ProfileStore":
        store = cls(audit=audit)
        if not policy.shared_layout:
            for rid in recommender_ids:
                store.per_recommender[rid] = {}
        return store

    def _bucket(self, policy: PortabilityPolicy, recommender_id: str) -> dict[int, list[Interaction]]:
        if policy.shared_layout:
            return self.shared
        return self.per_recommender.setdefault(recommender_id, {})


def seed_history(
    store: ProfileStore,
    policy: PortabilityPolicy,
    consumer_id: int,
    recommender_id: str,
    item_ids: Iterable[int],
    day: int = -1,
) -> None:
    """Place a consumer's pre-simulation history via ordinary click records."""
    for item_id in item_ids:
        record_click(store, policy, consumer_id, recommender_id, item_id, day)


def record_click(
    store: ProfileStore,
    policy: PortabilityPolicy,
    consumer_id: int,
    recommender_id: str,
    item_id: int,
    day: int,
) -> None:
    """Append a click to the profile the policy routes it to."""
    bucket = store._bucket(policy, recommender_id)
    bucket.setdefault(consumer_id, []).append((item_id, day))
    if store.audit is not None:
        store.audit.click(consumer_id, recommender_id, item_id, day)


def on_switch(
    store: ProfileStore,
    policy: PortabilityPolicy,
    consumer_id: int,
    from_id: str,
    to_id: str,
) -> None:
    """Apply the policy's profile mutation for a consumer switching recommenders.

    Algorithm-Specific and Universal leave storage untouched. Cold Start
    deletes the consumer's entries at the departed recommender. User
    Ownership moves them: the entries are merged into the destination
    (deduplicated on (item, day), day order preserved) and then deleted at
    the source. A consumer unknown at the source is a no-op.
    """
    if from_id == to_id:
        raise ValueError("switch requires distinct recommenders")
    if policy in (PortabilityPolicy.ALGORITHM_SPECIFIC, PortabilityPolicy.UNIVERSAL):
        return
    source = store.per_recommender.setdefault(from_id, {})
    entries = source.get(consumer_id)
    if not entries:
        return
    if policy is PortabilityPolicy.USER_OWNERSHIP:
        dest = store.per_recommender.setdefault(to_id, {})
        merged = _merge_transfer(dest.get(consumer_id, []), entries)
        dest[consumer_id] = merged
        if store.audit is not None:
            store.audit.emit(
                "transfer",
                consumer=consumer_id,
                source=from_id,
                destination=to_id,
            )
    del source[consumer_id]
    if store.audit is not None:
        store.audit.emit("delete", consumer=consumer_id, recommender=from_id)


def _merge_transfer(
    existing: list[Interaction], incoming: list[Interaction]
) -> list[Interaction]:
    seen = set(existing)
    merged = list(existing)
    for entry in incoming:
        if entry not in seen:
            merged.append(entry)
            seen.add(entry)
    merged.sort(key=lambda e: e[1])  # stable: restores day order after append
    return merged


def training_view(
    store: ProfileStore, policy: PortabilityPolicy, recommender_id: str
) -> dict[int, tuple[Interaction, ...]]:
    """Immutable snapshot of the profiles this recommender may train on."""
    if policy.shared_layout:
        bucket: Mapping[int, list[Interaction]] = store.shared
    else:
        bucket = store.per_recommender.get(recommender_id, {})
    return {consumer: tuple(entries) for consumer, entries in bucket.items() if entries}


def visible_items(
    store: ProfileStore,
    policy: PortabilityPolicy,
    recommender_id: str,
    consumer_id: int,
) -> set[int]:
    """Items in the consumer's profile as visible to this recommender."""
    if policy.shared_layout:
        entries = store.shared.get(consumer_id, [])
    else:
        entries = store.per_recommender.get(recommender_id, {}).get(consumer_id, [])
    return {item for item, _day in entries}


def replay_audit(
    events: Iterable[Mapping],
    policy: PortabilityPolicy,
    recommender_ids: Iterable[str],
) -> ProfileStore:
    """Rebuild a store by mechanically applying audited events.

    ``switch`` events carry no storage effect of their own; the paired
    ``transfer``/``delete`` events do. The result must equal the live store
    that produced the trail.
    """
    store = ProfileStore.create(policy, recommender_ids)
    for event in events:
        kind = event["event"]
        if kind == "click":
            record_click(
                store,
                policy,
                int(event["consumer"]),
                str(event["recommender"]),
                int(event["item"]),
                int(event["day"]),
            )
        elif kind == "transfer":
            consumer = int(event["consumer"])
            source = store.per_recommender.setdefault(str(event["source"]), {})
            dest = store.per_recommender.setdefault(str(event["destination"]), {})
            entries = source.get(consumer, [])
            dest[consumer] = _merge_transfer(dest.get(consumer, []), entries)
        elif kind == "delete":
            consumer = int(event["consumer"])
            bucket = store.per_recommender.setdefault(str(event["recommender"]), {})
            bucket.pop(consumer, None)
        elif kind == "switch":
            continue
        else:
            raise ValueError(f"unknown audit event: {kind!r}")
    return store


def store_state(store: ProfileStore) -> dict:
    """Canonical, comparison-friendly view of a store's contents.

    Empty consumer lists and empty recommender buckets are dropped so that
    stores built through different event paths compare equal.
    """
    per_rec = {}
    for rid, bucket in sorted(store.per_recommender.items()):
        cleaned = {c: list(v) for c, v in sorted(bucket.items()) if v}
        if cleaned:
            per_rec[rid] = cleaned
    return {
        "shared": {c: list(v) for c, v in sorted(store.shared.items()) if v},
        "per_recommender": per_rec,
    }
