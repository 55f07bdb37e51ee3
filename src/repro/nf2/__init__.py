"""NF² (nested relational) data model.

The paper restricts complex objects to *nested tuples*: tuples whose
attributes are either atomic (``INT``, ``STR``, ``LINK``) or relation
valued (sets of nested tuples).  This subpackage provides:

* :mod:`repro.nf2.schema` — schema definitions for nested relations,
* :mod:`repro.nf2.values` — nested tuple values and validation,
* :mod:`repro.nf2.oid` — logical object identifiers and record ids,
* :mod:`repro.nf2.serializer` — a byte serialiser with DASDBS-calibrated
  storage overheads (the sizes it produces drive the analytical model),
* :mod:`repro.nf2.codec` — the compiler behind it: one generated
  decoder/encoder per stored layout, compiled once per process.
"""

from repro.nf2.oid import Oid, Rid
from repro.nf2.schema import AttributeType, Attribute, Projection, RelationSchema
from repro.nf2.serializer import StorageFormat, DASDBS_FORMAT, NF2Serializer
from repro.nf2.values import NestedTuple

__all__ = [
    "AttributeType",
    "Attribute",
    "RelationSchema",
    "Projection",
    "NestedTuple",
    "Oid",
    "Rid",
    "StorageFormat",
    "DASDBS_FORMAT",
    "NF2Serializer",
]
