"""DSM — the Direct Storage Model (paper Section 3.1).

"With a Direct Storage Model (DSM) for complex objects there is no
fragmentation.  As far as possible, the nested tuples will be stored
contiguously on disk."  An object that fits on a page is stored as one
record in a shared slotted page; a larger object gets private header +
data pages (the DASDBS large-tuple layout of Section 4, which both
direct models share), cut into the root's flat part and one section per
sub-relation of the root.

DSM reads and writes objects **only as a whole**, one at a time: every
access transfers all pages of the object, and the root-record update of
query 3 is a replacement of the entire nested tuple (Section 5.3).  The
model is declarations; ``AddressedModel`` reads its paths off them.
"""

from __future__ import annotations

from repro.benchmark.schema import STATION_SCHEMA
from repro.models.base import AddressedModel
from repro.nf2.schema import links

#: A long object's root section: the root's flat part.
SECTION_ROOT = 0

#: What navigation decodes of an object: its references, nothing else.
_STATION_LINKS = links(STATION_SCHEMA)


class DSMModel(AddressedModel):
    """Direct storage model: whole-object access only.

    No parts: one relation ``DSM_Station``, one record per object, read
    one object at a time (no set-oriented interface), all of it.
    """

    name = "DSM"
    navigation = _STATION_LINKS
    set_oriented = False


__all__ = ["DSMModel", "SECTION_ROOT"]
