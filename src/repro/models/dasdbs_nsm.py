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

from repro.benchmark.schema import STATION_SCHEMA
from repro.models.base import AddressedModel
from repro.nf2.schema import links, nest_by_root

#: Figure 4 by rule: the unnested relations nested again on their root key.
DNSM_PARTS = nest_by_root(STATION_SCHEMA, "DASDBS_NSM")
DNSM_STATION, DNSM_PLATFORM, DNSM_CONNECTION, DNSM_SIGHTSEEING = (
    part.stored for part in DNSM_PARTS
)

#: The one relation whose records hold references, and what navigation
#: reads of a record: the references, nothing else.
(DNSM_LINKED,) = [index for index, part in enumerate(DNSM_PARTS) if links(part.stored)]
_LINKS = links(DNSM_PARTS[DNSM_LINKED].stored)


class DASDBSNSMModel(AddressedModel):
    """Normalized storage with per-object nesting and address table."""

    name = "DASDBS-NSM"
    parts = DNSM_PARTS
    root_schema = DNSM_STATION
    navigation = _LINKS


__all__ = [
    "DASDBSNSMModel",
    "DNSM_STATION",
    "DNSM_PLATFORM",
    "DNSM_CONNECTION",
    "DNSM_SIGHTSEEING",
    "DNSM_LINKED",
]
