"""Box geometry and the shared detection / ground-truth value types.

Coordinates are continuous 64-bit reals in pixel units, origin top-left,
x to the right, y down.  The max corner is exclusive for area purposes
(width = x_max - x_min).  All types here are immutable values and all
operations are pure functions.

:class:`BoundingBox` and :class:`Detection`, built once per record line,
track entry and refined detection, are frozen slotted dataclasses with a
hand-written ``__init__``: it runs the type's checks and stores each field
through its slot's descriptor, bound once at import, instead of one
``object.__setattr__`` per field.  Equality, hashing, ``repr``,
``dataclasses.replace`` and pickling are the dataclass's own.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping

from .taxonomy import ClassCode

PROB_SUM_SLACK = 1e-9
_TINY, _INF = sys.float_info.min, math.inf


def index_value(value, what: str) -> int:
    """``value`` as a plain ``int`` if it is a non-negative integer (numpy
    integers included); otherwise a ``ValueError`` naming ``what``.  Hot
    paths call it only when ``type(value) is not int or value < 0``."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


class Source(enum.Enum):
    """How a per-frame box came to exist."""

    DETECTED = "detected"
    INTERPOLATED = "interpolated"


def _check_box(x0, y0, x1, y1) -> None:
    """The box rule: finite coordinates, then min corner <= max corner."""
    isfinite = math.isfinite
    if not (isfinite(x0) and isfinite(y0) and isfinite(x1) and isfinite(y1)):
        raise ValueError(f"box coordinates must be finite, got {(x0, y0, x1, y1)}")
    if x0 > x1 or y0 > y1:
        raise ValueError(f"box min corner must not exceed max corner, got {(x0, y0, x1, y1)}")


@dataclass(frozen=True, slots=True, init=False)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        # one chained test passes exactly the finite, ordered boxes; the rule names the fault
        try:
            if not (-_INF < x_min <= x_max < _INF and -_INF < y_min <= y_max < _INF):
                _check_box(x_min, y_min, x_max, y_max)
        except TypeError:  # a coordinate that is no real number: the rule's own TypeError
            _check_box(x_min, y_min, x_max, y_max)
        _set_x_min(self, x_min)
        _set_y_min(self, y_min)
        _set_x_max(self, x_max)
        _set_y_max(self, y_max)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


_set_x_min, _set_y_min, _set_x_max, _set_y_max = (
    BoundingBox.__dict__[f.name].__set__ for f in fields(BoundingBox))


def area(box: BoundingBox) -> float:
    """Rectangle area in square pixels (zero for degenerate boxes)."""
    return box.width * box.height


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 when the union has no area."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = area(a) + area(b) - inter
    if not (_TINY <= inter and _TINY <= union < _INF):
        # the products under- or overflowed; the ratio is invariant under per-axis scaling
        sx, sy = max(a.width, b.width), max(a.height, b.height)
        inter = (iw / sx) * (ih / sy)
        union = (a.width / sx) * (a.height / sy) + (b.width / sx) * (b.height / sy) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def lerp_box(a: BoundingBox, b: BoundingBox, t: float) -> BoundingBox:
    """Coordinate-wise linear interpolation between two boxes, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {t}")
    s = 1.0 - t
    return BoundingBox(
        s * a.x_min + t * b.x_min,
        s * a.y_min + t * b.y_min,
        s * a.x_max + t * b.x_max,
        s * a.y_max + t * b.y_max,
    )


def pixel_rect(box: BoundingBox) -> tuple[int, int, int, int]:
    """Integer pixel bounds of a box, each coordinate rounded half up."""
    return (math.floor(box.x_min + 0.5), math.floor(box.y_min + 0.5),
            math.floor(box.x_max + 0.5), math.floor(box.y_max + 0.5))


NCC_MARGIN_PX = 20.0  # how far the NCC search area reaches past its two keyframe boxes


def search_area(box_a: BoundingBox, box_b: BoundingBox,
                margin: float = NCC_MARGIN_PX) -> BoundingBox:
    """Axis-aligned hull of two boxes grown by ``margin`` pixels per side.

    Not clipped here; clip to frame bounds at the point of use.
    """
    return BoundingBox(
        min(box_a.x_min, box_b.x_min) - margin,
        min(box_a.y_min, box_b.y_min) - margin,
        max(box_a.x_max, box_b.x_max) + margin,
        max(box_a.y_max, box_b.y_max) + margin,
    )


def best_class(dist: Mapping[ClassCode, float]) -> tuple[ClassCode, float]:
    """Argmax of a class distribution; ties go to the canonically smaller code."""
    return min(dist.items(), key=lambda item: (-item[1], item[0].segments))


class Distribution(dict):
    """A read-only class distribution: ClassCode keys, probabilities in
    [0, 1] summing to at most 1.  Checked once, when built."""

    __slots__ = ()

    def __init__(self, items=()):
        super().__init__(items)
        if not self:
            raise ValueError("class distribution must not be empty")
        total = 0.0
        for code, prob in self.items():
            if not isinstance(code, ClassCode):
                raise TypeError(f"distribution keys must be ClassCode, got {code!r}")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability for {code} out of [0, 1]: {prob}")
            total += prob
        if total > 1.0 + PROB_SUM_SLACK:
            raise ValueError(f"distribution probabilities sum to {total} > 1")

    def __setitem__(self, *args, **kwargs):
        raise TypeError("a Distribution is read-only")

    __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = __setitem__

    def __reduce__(self):
        # the default rebuilds a dict subclass item by item through __setitem__
        return Distribution, (dict(self),)


@dataclass(frozen=True, slots=True, init=False)
class Detection:
    """A box on one frame: detector output, a track entry (detected or
    interpolated), or refined output.

    Any mapping given as ``class_distribution`` is checked into a
    :class:`Distribution`; a ``Distribution`` is kept as it is.  The two
    NCC flags mark an interpolated entry whose correlation was degenerate
    (linear position kept) or whose template was clipped by the frame edge.
    """

    frame_index: int
    box: BoundingBox
    class_distribution: Distribution
    associated_data: str | None = None
    temporary: bool | None = None
    source: Source = Source.DETECTED
    ncc_degenerate: bool = False
    template_clipped: bool = False

    def __init__(self, frame_index: int, box: BoundingBox, class_distribution: Distribution,
                 associated_data: str | None = None, temporary: bool | None = None,
                 source: Source = Source.DETECTED, ncc_degenerate: bool = False,
                 template_clipped: bool = False) -> None:
        if type(frame_index) is not int or frame_index < 0:
            frame_index = index_value(frame_index, "frame index")
        if type(class_distribution) is not Distribution:
            class_distribution = Distribution(class_distribution)
        _set_frame_index(self, frame_index)
        _set_box(self, box)
        _set_class_distribution(self, class_distribution)
        _set_associated_data(self, associated_data)
        _set_temporary(self, temporary)
        _set_source(self, source)
        _set_ncc_degenerate(self, ncc_degenerate)
        _set_template_clipped(self, template_clipped)

    @property
    def code(self) -> ClassCode:
        """The predicted class: argmax of the distribution."""
        return best_class(self.class_distribution)[0]


(_set_frame_index, _set_box, _set_class_distribution, _set_associated_data, _set_temporary,
 _set_source, _set_ncc_degenerate, _set_template_clipped) = (
    Detection.__dict__[f.name].__set__ for f in fields(Detection))


def greedy_match(candidates: list[tuple[float, int, int]]) -> dict[int, tuple[int, float]]:
    """Global greedy assignment: ``(overlap, a, b)`` candidates are taken in
    descending overlap, ties to the smaller ``a`` and then the smaller
    ``b``, each ``a`` and each ``b`` used at most once.  Returns
    ``{a: (b, overlap)}``."""
    matched: dict[int, tuple[int, float]] = {}
    taken: set[int] = set()
    for overlap, a, b in sorted(candidates, key=lambda c: (-c[0], c[1], c[2])):
        if a not in matched and b not in taken:
            matched[a] = (b, overlap)
            taken.add(b)
    return matched


def group_by_frame(detections: list[Detection]) -> dict[int, list[Detection]]:
    """Bucket detections by frame index, keeping their order within a frame."""
    grouped: dict[int, list[Detection]] = {}
    for det in detections:
        grouped.setdefault(det.frame_index, []).append(det)
    return grouped


@dataclass(frozen=True)
class GroundTruthSign:
    """An annotated sign instance on one frame."""

    frame_index: int
    box: BoundingBox
    code: ClassCode
    associated_data: str | None = None
    temporary: bool = False

    def __post_init__(self) -> None:
        if type(self.frame_index) is not int or self.frame_index < 0:
            object.__setattr__(self, "frame_index", index_value(self.frame_index, "frame index"))


@dataclass(frozen=True)
class FrameAnnotations:
    """Ground truth for a single frame.

    A frame is annotated exactly when it is listed: listed with no signs,
    it was inspected and is genuinely empty.
    """

    frame_index: int
    signs: tuple[GroundTruthSign, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if type(self.frame_index) is not int or self.frame_index < 0:
            object.__setattr__(self, "frame_index", index_value(self.frame_index, "frame index"))
        object.__setattr__(self, "signs", tuple(self.signs))
        for sign in self.signs:
            if sign.frame_index != self.frame_index:
                raise ValueError(
                    f"sign on frame {sign.frame_index} in annotations for frame {self.frame_index}"
                )
