"""Profile storage under the four portability policies.

A profile is a consumer's click history as held by one or more
recommenders. The policy decides where clicks are written, what a
recommender can see at training time, and what happens to the data when a
consumer switches recommenders. A store is created under one policy and is
the only code that applies it, to the lists and to the visibility matrices
it keeps beside them. Every mutation can be mirrored to an audit
trail of JSON-serializable events; replaying the trail reconstructs the
store exactly, which the test suite uses as an oracle.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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


# json.dumps(..., sort_keys=True) builds this encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode

# The kind byte of an event held in ``AuditTrail._held``; any smaller kind is
# a column-held click's recommender code
_LINE = 255  # one line
_TRAIL = 254  # a whole trail, by reference


class AuditTrail:
    """Append-only event log, written as newline-delimited JSON.

    Each line is exactly ``json.dumps(event, sort_keys=True) + "\n"``, but it
    is rendered only when the trail is read or written. Clicks, most of a
    trail, are held as int64 columns (consumer, day, item) with one kind
    byte each: the code of the click's recommender. Every other event, and a
    click whose numbers do not fit the columns, is held as its line. A
    branch of a suite holds the trail of the prefix it forks from by
    reference (``include``).
    """

    def __init__(self) -> None:
        # Imported here: it is a shared library that a run without a trail
        # need not load (about 70 KB of resident memory)
        from array import array

        self._kinds = bytearray()  # one per event, in event order
        self._consumers, self._days, self._items = array("q"), array("q"), array("q")
        self._held: list[str | AuditTrail] = []
        self._codes: dict[str, int] = {}  # recommender id -> code, in code order

    def emit(self, event: str, **payload: object) -> None:
        self._held.append(_encode({"event": event, **payload}) + "\n")
        self._kinds.append(_LINE)

    def click(self, consumer: int, recommender: str, item: int, day: int) -> None:
        """``emit("click", ...)``, held in the columns when it fits them."""
        code = self._codes.setdefault(recommender, len(self._codes))
        if code < _TRAIL:
            try:
                self._consumers.append(consumer)
                self._days.append(day)
                self._items.append(item)
                self._kinds.append(code)
                return
            except (OverflowError, TypeError):  # not an int64
                n = len(self._items)
                del self._consumers[n:], self._days[n:]
        self.emit("click", consumer=consumer, recommender=recommender, item=item, day=day)

    def clicks(
        self, consumers: Sequence[int], recommender: str, items: Sequence[int], day: int
    ) -> None:
        """``click`` of each (consumer, item) pair in order, all at ``day``: one
        bulk write to the columns when every number fits them."""
        if len(consumers) != len(items):
            raise ValueError(f"{len(consumers)} consumers for {len(items)} clicked items")
        code = self._codes.setdefault(recommender, len(self._codes))
        if code < _TRAIL:
            n = len(self._items)
            try:
                self._consumers.extend(consumers)
                self._days.extend([day] * len(items))
                self._items.extend(items)
                self._kinds += bytes((code,)) * len(items)
                return
            except (OverflowError, TypeError):
                del self._consumers[n:], self._days[n:], self._items[n:]
        for consumer, item in zip(consumers, items):
            self.click(consumer, recommender, item, day)

    def include(self, trail: AuditTrail) -> None:
        """Append every event of ``trail``, by reference: events written to
        ``trail`` afterwards would show here too, so it must not be written
        again."""
        self._held.append(trail)
        self._kinds.append(_TRAIL)

    def render(self) -> Iterator[str]:
        """The lines in event order, each rendered as it is reached."""
        names = [encode_basestring_ascii(r) for r in self._codes]
        clicks = zip(self._consumers, self._days, self._items)
        held = iter(self._held)
        for kind in self._kinds:
            if kind == _LINE:
                yield next(held)
            elif kind == _TRAIL:
                yield from next(held).render()
            else:
                consumer, day, item = next(clicks)
                yield (
                    f'{{"consumer": {consumer}, "day": {day}, "event": "click", '
                    f'"item": {item}, "recommender": {names[kind]}}}\n'
                )

    @property
    def lines(self) -> list[str]:
        """The rendered lines; editing them changes nothing."""
        return list(self.render())

    @property
    def events(self) -> list[dict]:
        """The events decoded from the lines; editing them changes nothing."""
        return [json.loads(line) for line in self.render()]


@dataclass(eq=False)
class ProfileStore:
    """Single-writer interaction store under one policy.

    Under the Universal policy every recommender observes one shared map;
    all other policies keep one map per recommender. Interaction lists stay
    ordered by day index. Beside each map the store holds its boolean
    visibility matrix in ``visible``: consumer row x catalog row, True where
    the item is in the consumer's list, with rows and columns in the order
    of the ids given to ``create``. Under Universal every recommender holds
    the same matrix object.
    """

    policy: PortabilityPolicy
    consumer_rows: dict[int, int]
    item_rows: dict[int, int]
    visible: dict[str, np.ndarray]
    shared: dict[int, list[Interaction]] = field(default_factory=dict)
    per_recommender: dict[str, dict[int, list[Interaction]]] = field(default_factory=dict)
    audit: AuditTrail | None = None

    @classmethod
    def create(
        cls,
        policy: PortabilityPolicy,
        recommender_ids: Iterable[str],
        consumer_ids: Iterable[int],
        item_ids: Iterable[int],
        audit: AuditTrail | None = None,
    ) -> "ProfileStore":
        consumer_rows = {int(c): k for k, c in enumerate(consumer_ids)}
        item_rows = {int(i): k for k, i in enumerate(item_ids)}
        shape = (len(consumer_rows), len(item_rows))
        rids = list(recommender_ids)
        if policy is PortabilityPolicy.UNIVERSAL:
            visible = dict.fromkeys(rids, np.zeros(shape, dtype=bool))
            return cls(policy, consumer_rows, item_rows, visible, audit=audit)
        visible = {rid: np.zeros(shape, dtype=bool) for rid in rids}
        buckets = {rid: {} for rid in rids}
        return cls(policy, consumer_rows, item_rows, visible, per_recommender=buckets, audit=audit)

    def branch(
        self,
        policy: PortabilityPolicy,
        recommender_ids: Iterable[str],
        home: str,
        audit: AuditTrail | None,
    ) -> "ProfileStore":
        """A store under ``policy`` over the same consumers and items whose
        ``home`` profiles are copies of this store's. ``audit``, if given,
        first receives this store's audit trail, by reference: this store
        must have a trail other than ``audit``, and must not write it after
        the branch."""
        if audit is not None and (self.audit is None or audit is self.audit):
            raise ValueError("a branch's audit trail must be new and start from its parent's")
        store = ProfileStore.create(
            policy, recommender_ids, self.consumer_rows, self.item_rows, audit
        )
        store._bucket(home).update((c, list(e)) for c, e in self._bucket(home).items())
        store.visible[home][:] = self.visible[home]
        if audit is not None:
            audit.include(self.audit)
        return store

    def _bucket(self, recommender_id: str) -> dict[int, list[Interaction]]:
        if self.policy is PortabilityPolicy.UNIVERSAL:
            return self.shared
        return self.per_recommender[recommender_id]

    def _transfer(self, consumer_id: int, source: str, destination: str) -> None:
        """Merge the consumer's profile at ``source`` into ``destination``:
        deduplicated on (item, day), day order preserved."""
        row = self.consumer_rows[consumer_id]
        kept = self.per_recommender[destination].setdefault(consumer_id, [])
        seen = set(kept)
        for entry in self.per_recommender[source].get(consumer_id, ()):
            if entry not in seen:
                kept.append(entry)
                seen.add(entry)
        kept.sort(key=lambda e: e[1])  # stable: restores day order after append
        self.visible[destination][row] |= self.visible[source][row]

    def _delete(self, consumer_id: int, recommender_id: str) -> None:
        self.visible[recommender_id][self.consumer_rows[consumer_id]] = False
        self.per_recommender[recommender_id].pop(consumer_id, None)


def seed_histories(
    store: ProfileStore, recommender_id: str, histories: Mapping[int, Sequence[int]]
) -> None:
    """Place pre-simulation histories in one bulk write: the matrix cells,
    list entries and audit clicks of ``record_click`` of each consumer's
    items at day -1, consumers in the mapping's order."""
    histories = {c: items for c, items in histories.items() if len(items)}
    # The lookups come first, so an unknown id raises before any write
    rows = np.fromiter((store.consumer_rows[c] for c in histories), np.intp, len(histories))
    items = [i for h in histories.values() for i in h]
    cols = np.fromiter((store.item_rows[i] for i in items), np.intp, len(items))
    rows = np.repeat(rows, [len(h) for h in histories.values()])
    store.visible[recommender_id][rows, cols] = True
    bucket = store._bucket(recommender_id)
    for consumer_id, history in histories.items():
        bucket.setdefault(consumer_id, []).extend((item_id, -1) for item_id in history)
    if store.audit is not None:
        consumers = [c for c, h in histories.items() for _ in h]
        store.audit.clicks(consumers, recommender_id, items, -1)


def record_click(
    store: ProfileStore,
    consumer_id: int,
    recommender_id: str,
    item_id: int,
    day: int,
) -> None:
    """Append a click to the profile the store's policy routes it to."""
    # The lookups come first, so an unknown id raises before any write
    visible = store.visible[recommender_id]
    visible[store.consumer_rows[consumer_id], store.item_rows[item_id]] = True
    store._bucket(recommender_id).setdefault(consumer_id, []).append((item_id, day))
    if store.audit is not None:
        store.audit.click(consumer_id, recommender_id, item_id, day)


def on_switch(store: ProfileStore, consumer_id: int, from_id: str, to_id: str) -> None:
    """Apply the policy's profile mutation for a consumer switching recommenders.

    Algorithm-Specific and Universal leave storage untouched. Cold Start
    deletes the consumer's entries at the departed recommender. User
    Ownership moves them: the entries are merged into the destination
    (deduplicated on (item, day), day order preserved) and then deleted at
    the source. A consumer unknown at the source is a no-op.
    """
    if from_id == to_id:
        raise ValueError("switch requires distinct recommenders")
    policy = store.policy
    if policy.permanent or not store.per_recommender[from_id].get(consumer_id):
        return
    if not policy.exclusive:
        store._transfer(consumer_id, from_id, to_id)
        if store.audit is not None:
            store.audit.emit(
                "transfer",
                consumer=consumer_id,
                source=from_id,
                destination=to_id,
            )
    store._delete(consumer_id, from_id)
    if store.audit is not None:
        store.audit.emit("delete", consumer=consumer_id, recommender=from_id)


def training_view(store: ProfileStore, recommender_id: str) -> dict[int, tuple[Interaction, ...]]:
    """Immutable snapshot of the profiles this recommender may train on, as
    lists (the engine trains on their index, the matrix in ``store.visible``)."""
    bucket = store._bucket(recommender_id)
    return {consumer: tuple(entries) for consumer, entries in bucket.items() if entries}


def visible_items(store: ProfileStore, recommender_id: str, consumer_id: int) -> set[int]:
    """Items in the consumer's profile as visible to this recommender, read
    from the lists (the matrix in ``store.visible`` is their index)."""
    return {item for item, _day in store._bucket(recommender_id).get(consumer_id, ())}


def replay_audit(
    events: Iterable[Mapping],
    policy: PortabilityPolicy,
    recommender_ids: Iterable[str],
) -> ProfileStore:
    """Rebuild a store by mechanically applying audited events.

    ``switch`` events carry no storage effect of their own; the paired
    ``transfer``/``delete`` events do. The store's consumers and items are
    those the events name, in ascending id order. The result must equal the
    live store that produced the trail.
    """
    events = list(events)
    consumers = sorted({int(e["consumer"]) for e in events if "consumer" in e})
    items = sorted({int(e["item"]) for e in events if e["event"] == "click"})
    store = ProfileStore.create(policy, recommender_ids, consumers, items)
    for event in events:
        kind = event["event"]
        if kind == "click":
            record_click(
                store,
                int(event["consumer"]),
                str(event["recommender"]),
                int(event["item"]),
                int(event["day"]),
            )
        elif kind == "transfer":
            store._transfer(
                int(event["consumer"]), str(event["source"]), str(event["destination"])
            )
        elif kind == "delete":
            store._delete(int(event["consumer"]), str(event["recommender"]))
        elif kind != "switch":
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
