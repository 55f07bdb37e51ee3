"""DASDBS-DSM — direct storage with header-guided partial access.

Section 3.2: "DSM can be enhanced in such a way that, from the set of
pages that stores the object, only those pages are retrieved that are
actually used in a query. ... Structural information is gathered in an
'object header' that allows dedicated access to parts of a complex
object."

Differences from plain DSM, all reproduced here:

* navigation (queries 2/3) reads the header plus only the data pages of
  the root section and the sections holding references — for the
  benchmark object typically "the header page and a single data page"
  (Section 4);
* the root-record read of a loop's last step transfers the header plus
  the root section's page only;
* value selection (query 1b) scans header + root-section pages instead
  of whole objects;
* updates cannot replace a partially-read tuple, so they use the DASDBS
  ``change attribute`` operation, which writes its (single-page) page
  pool immediately on every call — the write-amplification the paper
  analyses in Section 5.3.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.models.base import Ref
from repro.models.dsm import LINK_SECTIONS, SECTION_ROOT, DirectModelBase
from repro.nf2.oid import Rid

class DASDBSDSMModel(DirectModelBase):
    """Direct storage model with section-granular access."""

    name = "DASDBS-DSM"
    #: Navigation transfers the root section and the sections holding
    #: references, a root read the root section alone.
    navigation_sections = (SECTION_ROOT, *LINK_SECTIONS)
    root_sections = (SECTION_ROOT,)

    # -- update: change-attribute with page-pool write-through ------------------------

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Per-tuple ``change attribute`` operations (Section 5.3).

        "With DASDBS-DSM ... we cannot replace the entire tuple since
        for each tuple only those pages are retrieved that are actually
        needed. ... Unfortunately, in DASDBS each update operation
        allocates a page pool, of which all pages are written."  Every
        object therefore causes an immediate single-page write call.
        """
        patch = self._root_patch(changes)
        for ref in self._dedupe(refs):
            handle = self._handle(ref)
            if type(handle) is Rid:
                self.heap.update(
                    handle, patch(self.heap.read(handle)), write_through=True
                )
            else:
                (root_blob,) = self.long_store.read(handle, self.root_sections)
                self.long_store.patch_section(
                    handle, SECTION_ROOT, patch(root_blob), write_through=True
                )


__all__ = ["DASDBSDSMModel"]
