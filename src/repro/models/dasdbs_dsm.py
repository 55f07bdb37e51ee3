"""DASDBS-DSM — direct storage with header-guided partial access.

Section 3.2: "DSM can be enhanced in such a way that, from the set of
pages that stores the object, only those pages are retrieved that are
actually used in a query. ... Structural information is gathered in an
'object header' that allows dedicated access to parts of a complex
object."  It stores objects as DSM does and declares only what differs:

* navigation (queries 2/3) reads the header plus the data pages of the
  root section and the sections holding references — for the benchmark
  object typically "the header page and a single data page" (Section 4);
* a root-record read and value selection (query 1b) read the header
  plus the root section's pages;
* updates cannot replace a partially-read tuple, so they use the DASDBS
  ``change attribute`` operation, which writes its (single-page) page
  pool immediately on every call — the write-amplification the paper
  analyses in Section 5.3.
"""

from __future__ import annotations

from repro.benchmark.schema import STATION_SCHEMA
from repro.models.base import link_sections
from repro.models.dsm import SECTION_ROOT, DSMModel


class DASDBSDSMModel(DSMModel):
    """Direct storage model with section-granular access."""

    name = "DASDBS-DSM"
    #: Navigation transfers the root section and the sections holding
    #: references, a root read the root section alone.
    navigation_sections = link_sections(STATION_SCHEMA)
    root_sections = (SECTION_ROOT,)
    #: "In DASDBS each update operation allocates a page pool, of which
    #: all pages are written": every object's root patch, at once.
    write_through = True


__all__ = ["DASDBSDSMModel"]
