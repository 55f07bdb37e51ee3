"""DASDBS-NSM — normalized storage with nesting and an address table.

Section 3.4: the flat NSM relations are re-clustered by *nesting* on the
root (and parent) foreign keys, so each relation keeps **one** (nested)
tuple per complex object (Figure 4, derived by the rule
``nf2.schema.nest_by_root``):

* ``DASDBS_NSM_Station(Key, NoPlatform, NoSeeing, Name)`` — flat root,
* ``DASDBS_NSM_Platform(RootKey, {(OwnKey, PlatformNr, ...)})``,
* ``DASDBS_NSM_Connection(RootKey, {(ParentKey, {(LineNr, Key, Oid, Times)})})``,
* ``DASDBS_NSM_Sightseeing(RootKey, {(SeeingNr, ...)})``.

"It becomes efficient to keep an additional table (index) with a single
entry per object and a fixed and limited number of addresses in this
entry" — the *transformation table* mapping an object to the addresses
of its four tuples.  Like the paper we keep this table in memory and
charge it no I/O ("we did not account for additional I/Os needed ... to
retrieve the tables with addresses", Section 5.1).

Navigation touches only the relations it needs: queries 2/3 read the
Connection tuples (and Station tuples for the root records); the
Sightseeing relation is never accessed, which is why Figure 5 shows
DASDBS-NSM's query 2b/3b results independent of the object size.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA
from repro.errors import InvalidAddressError
from repro.models.addressing import Row
from repro.models.base import Ref
from repro.models.nsm import NSMFamilyModel
from repro.nf2.schema import links, nest_by_root
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple, links_of
from repro.storage import StorageEngine

#: Figure 4 by rule: the unnested relations nested again on their root key.
DNSM_PARTS = nest_by_root(STATION_SCHEMA, "DASDBS_NSM")
DNSM_STATION, DNSM_PLATFORM, DNSM_CONNECTION, DNSM_SIGHTSEEING = (
    part.stored for part in DNSM_PARTS
)

#: The one relation whose records hold references, and what navigation
#: reads of a record: the references, nothing else.
(DNSM_LINKED,) = [index for index, part in enumerate(DNSM_PARTS) if links(part.stored)]
_LINKS = links(DNSM_PARTS[DNSM_LINKED].stored)


class DASDBSNSMModel(NSMFamilyModel):
    """Normalized storage with per-object nesting and address table."""

    name = "DASDBS-NSM"
    parts = DNSM_PARTS
    root_schema = DNSM_STATION

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.stations, self.platforms, self.connections, self.sightseeings = self.relations

    # -- operations ------------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        return self._read_assembled(self.table.row(ref))

    def _read_assembled(self, row: Row) -> NestedTuple:
        # Each tuple is read, then decoded, before the next is read.
        return self._assembly.join(
            *[
                decode(relation.read_record(handle))
                for decode, relation, (handle,) in zip(self._assembly.decode, self.relations, row)
            ]
        )

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection on the root relation, then access by address.

        "With query 1b, only the root tuple of the object is selected
        based on a value selection, whereupon we use the addresses in
        the index table to retrieve all other data by address."
        """
        decode_atom = self.serializer.decode_atom
        found = False
        for blob in self.stations.scan_records(self.table.long_handles(0)):
            if decode_atom(DNSM_STATION, blob, "Key") == key:
                found = True
        if not found:
            raise InvalidAddressError(f"no station with key {key}")
        return self._read_assembled(self.table.row_of_key(key))

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        return [ref for group in self.fetch_refs_grouped(refs) for ref in group]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: the same batched read as ``fetch_refs``."""
        handles = [self.table.row(oid)[DNSM_LINKED][0] for oid in refs]
        records = self.relations[DNSM_LINKED].read_many(handles, _LINKS)
        return [links_of((record,)) for record in records]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        handles = [self.table.row(oid)[0][0] for oid in refs]
        decode = self.serializer._decode_flat_part
        return [
            decode(DNSM_STATION, blob, 0)[0] for blob in self.stations.read_records(handles)
        ]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace the (small) root tuples, set-oriented and deferred.

        "With DASDBS-NSM only small root tuples in the
        DASDBS-NSM-Station relation are updated, of which there are
        many on a single page."
        """
        patch = self._root_patch(changes)
        for oid in self._dedupe(refs):
            self.stations.patch(self.table.row(oid)[0][0], patch)


__all__ = [
    "DASDBSNSMModel",
    "DNSM_STATION",
    "DNSM_PLATFORM",
    "DNSM_CONNECTION",
    "DNSM_SIGHTSEEING",
    "DNSM_LINKED",
]
