"""Tunnel cross-sections and whole-tunnel block enumeration.

The tunnel is an infinite prism: a convex polygon in the vertical section
plane swept along a horizontal axis.  Each polygon edge becomes a planar
free face whose inward-to-rock normal points away from the opening.  For
every (facet, block code) pair the sweep classifies the block and, when it
is removable, derives sliding mode, safety factor, and the volume of the
block seeded ``Facet.seed_depth`` into the rock.  The sweep returns its
results as columns, a ``TunnelSweep``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mechanics import (
    CLASS_REMOVABLE,
    ModeInconsistencyError,
    block_mechanics,
    classify_codes,
    code_signs,
    joint_normals,
)
from .orientation import JointPlane, wrap_azimuth
from .pyramid import signed_cones
from .volume import pyramid_volumes

GRAVITY_DIR = (0.0, 0.0, -1.0)


@dataclass(frozen=True)
class Facet:
    index: int
    inward_normal: np.ndarray  # into the rock, unit
    midpoint: np.ndarray  # 3-D, on the tunnel surface at axis station 0
    angle_deg: float  # position of the midpoint around the section
    edge_length: float
    section_edge: tuple[tuple[float, float], tuple[float, float]]

    @property
    def seed_depth(self) -> float:
        """How far into the rock a block is seeded from the facet: a quarter of
        the edge length, a convention, not a property of the rock."""
        return 0.25 * self.edge_length


def _convexity_sign(vertices: Sequence[tuple[float, float]]) -> float:
    """1 for a convex polygon wound counterclockwise, -1 for one wound clockwise.

    Its turns must all have one sign, collinear vertices aside, and add up
    to one full turn: a pentagram, or a polygon listed twice, turns one way
    throughout but winds twice.
    """
    n = len(vertices)
    signs = []
    turning = 0.0
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cx, cy = vertices[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        turning += math.atan2(cross, (bx - ax) * (cx - bx) + (by - ay) * (cy - by))
        if abs(cross) > 1e-12:
            signs.append(math.copysign(1.0, cross))
    if not signs:
        raise ValueError("section polygon is degenerate")
    if len(set(signs)) != 1 or round(abs(turning) / (2.0 * math.pi)) != 1:
        raise ValueError("section polygon must be convex")
    return signs[0]


@dataclass(frozen=True)
class TunnelSection:
    """Convex section polygon in (u, w) coordinates plus a horizontal axis.

    u is horizontal within the section plane, w is vertical; for axis trend 0
    (tunnel running north) u points east.
    """

    vertices: tuple[tuple[float, float], ...]
    axis_trend_deg: float = 0.0

    def __post_init__(self) -> None:
        verts = tuple((float(u), float(w)) for u, w in self.vertices)
        if len(verts) < 3:
            raise ValueError("section polygon needs at least 3 vertices")
        if not all(math.isfinite(c) for v in verts for c in v):
            raise ValueError(f"section vertices must be finite, got {verts}")
        if not math.isfinite(self.axis_trend_deg):
            raise ValueError(f"axis trend must be finite, got {self.axis_trend_deg}")
        for i, v in enumerate(verts):
            j = (i + 1) % len(verts)
            if v == verts[j]:
                raise ValueError(f"section vertices {i} and {j} coincide: zero-length edge")
        if _convexity_sign(verts) < 0:
            verts = tuple(reversed(verts))
            _convexity_sign(verts)
        object.__setattr__(self, "vertices", verts)

    @property
    def axis(self) -> np.ndarray:
        t = math.radians(self.axis_trend_deg)
        return np.array([math.sin(t), math.cos(t), 0.0])

    @property
    def u_hat(self) -> np.ndarray:
        t = math.radians(self.axis_trend_deg)
        return np.array([math.cos(t), -math.sin(t), 0.0])

    @property
    def w_hat(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

    def to_world(self, u: float, w: float, station: float = 0.0) -> np.ndarray:
        return u * self.u_hat + w * self.w_hat + station * self.axis

    @property
    def centroid(self) -> tuple[float, float]:
        us = [v[0] for v in self.vertices]
        ws = [v[1] for v in self.vertices]
        return (sum(us) / len(us), sum(ws) / len(ws))

    def facets(self) -> tuple[Facet, ...]:
        """One facet per polygon edge, in vertex order; computed once per section."""
        return self._facets

    @functools.cached_property
    def _facets(self) -> tuple[Facet, ...]:
        cu, cw = self.centroid
        out = []
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            du, dw = b[0] - a[0], b[1] - a[1]
            length = math.hypot(du, dw)
            # CCW polygon: outward (into rock) normal is the edge direction
            # rotated clockwise
            nu, nw = dw / length, -du / length
            mid_u, mid_w = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
            angle = wrap_azimuth(math.degrees(math.atan2(mid_w - cw, mid_u - cu)))
            e3 = nu * self.u_hat + nw * self.w_hat
            normal = e3 / np.linalg.norm(e3)
            midpoint = self.to_world(mid_u, mid_w)
            normal.flags.writeable = False
            midpoint.flags.writeable = False
            out.append(
                Facet(
                    index=i,
                    inward_normal=normal,
                    midpoint=midpoint,
                    angle_deg=angle,
                    edge_length=length,
                    section_edge=(a, b),
                )
            )
        return tuple(out)

    def facets_at_angles(self, thetas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Facet index (-1 where none) and hit point of the ray from the centroid at each angle.

        Every angle is computed elementwise with the same formulas in the
        same order, so it gets the same bits alone or in any batch.  Callers
        must treat an index of -1 as an error, never as the last facet.
        """
        cu, cw = self.centroid
        rad = [math.radians(t) for t in thetas]
        du = np.array([math.cos(r) for r in rad])[:, None]
        dw = np.array([math.sin(r) for r in rad])[:, None]
        edges = np.array([f.section_edge for f in self.facets()]).reshape(-1, 4)
        au, aw, bu, bw = edges.T
        eu, ew = bu - au, bw - aw
        det = du * (-ew) - dw * (-eu)
        regular = np.abs(det) >= 1e-12
        det = np.where(regular, det, 1.0)
        t = ((au - cu) * (-ew) - (aw - cw) * (-eu)) / det
        s = (du * (aw - cw) - dw * (au - cu)) / det
        hit = regular & (t > 1e-9) & (s >= -1e-9) & (s <= 1.0 + 1e-9)
        best = np.argmin(np.where(hit, t, np.inf), axis=1)
        rows = np.arange(len(best))
        t_best = t[rows, best][:, None]
        u = cu + t_best * du
        w = cw + t_best * dw
        return np.where(hit.any(axis=1), best, -1), self.to_world(u, w)

    def section_bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned world box around the section, padded into the rock.

        The padding is the section's larger extent across the section and
        1.5 times it along the axis, either way.
        """
        us = [v[0] for v in self.vertices]
        ws = [v[1] for v in self.vertices]
        extent = max(max(us) - min(us), max(ws) - min(ws))
        corners = []
        for u in (min(us) - extent, max(us) + extent):
            for w in (min(ws) - extent, max(ws) + extent):
                for s in (-1.5 * extent, 1.5 * extent):
                    corners.append(self.to_world(u, w, s))
        corners = np.array(corners)
        return corners.min(axis=0), corners.max(axis=0)


def all_codes(n_joints: int) -> list[str]:
    """All 2^n block codes in lexicographic order (L before U), for at most 8 joints.

    The crisp sweep and the fuzzy ranking both make their codes here, so
    both refuse a ninth joint before any 2^n-row array is built.
    """
    if n_joints > 8:
        raise ValueError(f"at most 8 joints are supported (2^n block codes), got {n_joints}")
    return ["".join(c) for c in itertools.product("LU", repeat=n_joints)]


@dataclass(eq=False)
class TunnelSweep:
    """Outcome of the tunnel sweep as columns, facet-major and codes lexicographic.

    The (F, C) columns hold one entry per (facet, code) pair; the (C,)
    columns hold what depends on the code only, and apply where the block
    is removable.  ``len()`` is the number of records, F * C.
    """

    facets: tuple[Facet, ...]
    codes: list[str]
    classification: np.ndarray  # (F, C) str
    boundary: np.ndarray  # (F, C) bool: the JP or the BP is boundary-only
    removable: np.ndarray  # (F, C) bool
    volume: np.ndarray  # (F, C), NaN where the block is not sized
    mode_label: list[str]  # (C,) "" where the code is removable on no facet
    safety_factor: np.ndarray  # (C,), NaN where the code has none
    error: list[Optional[str]]  # (C,)

    def __len__(self) -> int:
        return self.removable.size

    @property
    def sized(self) -> np.ndarray:
        """(F, C) mask of the blocks with a volume: removable, with no error."""
        return self.removable & np.array([e is None for e in self.error])


def enumerate_tunnel_blocks(
    joints: Sequence[JointPlane],
    tunnel: TunnelSection,
) -> TunnelSweep:
    """Classify every (facet, code) pair; facet-major, codes lexicographic.

    The JPs of all codes are one cone test and the BPs another, stacked over
    the facets.  That one tests only the codes whose JP is nonempty: a BP is
    its JP plus the facet row, so every other code is tapered on every
    facet, and by Goodman & Shi at most n(n - 1) + 2 of the 2^n JPs of n
    joints in general position are nonempty.  Removable blocks get mode and
    safety factor under gravity (``GRAVITY_DIR``, the only load), which
    depend on the code only and come from one ``block_mechanics`` call for
    all codes, and the volume of the block seeded ``Facet.seed_depth`` into
    the rock from the facet midpoint.  Its block pyramid is empty, so that
    block is a pyramid: the seed point is its apex, its JP its sides and the
    facet plane its base.  All volumes come in closed form from one
    ``pyramid_volumes`` call, with no box and no plane-triple solve.  A mode
    or safety-factor failure is recorded on the affected code and never
    aborts the sweep.  The result is a ``TunnelSweep`` of columns.
    """
    codes = all_codes(len(joints))
    signs = code_signs(codes, len(joints))
    normals = joint_normals(joints)
    jp = signed_cones(normals, signs)
    facets = tunnel.facets()
    classes, bp = classify_codes(signs, normals, jp, [f.inward_normal for f in facets])
    removable = classes == CLASS_REMOVABLE
    moving = np.flatnonzero(removable.any(axis=0))
    label, error = [""] * len(codes), [None] * len(codes)
    sf = np.full(len(codes), math.nan)
    if len(moving):
        tan_phi = [math.tan(math.radians(j.friction_deg)) for j in joints]
        mech = block_mechanics(signs[moving, :, None] * normals, GRAVITY_DIR, tan_phi)
        for c, text, fault, value in zip(moving.tolist(), mech.labels(), mech.error,
                                         mech.sf.tolist()):
            label[c] = text
            if fault:
                error[c] = f"{ModeInconsistencyError.__name__}: {fault}"
            else:
                sf[c] = value
    sweep = TunnelSweep(
        facets, codes, classes, boundary=jp.boundary_only | bp.boundary_only,
        removable=removable, volume=np.full(removable.shape, math.nan), mode_label=label,
        safety_factor=sf, error=error)
    f, c = np.nonzero(sweep.sized)
    if len(f):
        sweep.volume[f, c] = pyramid_volumes(
            normals, signs[c], [facet.inward_normal for facet in facets],
            [facet.seed_depth for facet in facets], f)
    return sweep


def seeded_halfspaces(
    jp_normals: np.ndarray, facets: Sequence[Facet], which: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Half-spaces of the block that each row seeds at a point of its facet.

    Row b's joint planes, ``jp_normals[b]`` (m, 3) facing into the block,
    pass through the seed point, ``seed_depth`` of facet ``which[b]`` into
    the rock from ``points[b]``; that facet's plane through ``points[b]``
    closes the block.  Returns normals (B, m+1, 3) and offsets (B, m+1),
    the facet plane last; every row is computed elementwise, so it gets the
    bits it gets alone.
    """
    e = np.array([f.inward_normal for f in facets])[which]
    seeds = points + np.array([f.seed_depth for f in facets])[which][:, None] * e
    normals = np.concatenate([jp_normals, e[:, None]], axis=1)
    offsets = np.c_[np.vecdot(jp_normals, seeds[:, None]), np.vecdot(e, points)]
    return normals, offsets
