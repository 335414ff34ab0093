"""Reference for the columnar ``kbt analyze`` and ``kbt volume`` products.

The two functions below build the product text record by record, from
``TunnelSweep.records()``, as the commands did before the sweep became
columnar.  The commands must write the same text byte for byte.
"""
from typing import Optional

from fuzzyblock.csv_io import csv_text


def _fmtnum(v: Optional[float]) -> str:
    if v is None:
        return ""
    return repr(float(v))


def analyze_text(records) -> str:
    rows = [
        (
            r.facet_index,
            r.code,
            r.classification or "",
            r.mode_label,
            _fmtnum(r.safety_factor),
            _fmtnum(r.volume_m3),
            _fmtnum(r.facet_angle_deg),
            int(r.boundary_pyramid),
            r.error or "",
        )
        for r in records
    ]
    header = ("facet", "code", "class", "mode", "sf", "volume", "angle", "boundary", "error")
    return csv_text(header, rows)


def volume_text(records) -> str:
    rows = [
        (r.facet_index, r.code, _fmtnum(r.volume_m3))
        for r in records
        if r.volume_m3 is not None
    ]
    return csv_text(("facet", "code", "volume"), rows)
