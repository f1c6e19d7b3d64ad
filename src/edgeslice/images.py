"""Container image catalogue and per-worker image caches.

The catalogue is cloud-resident and immutable once loaded; pulls are
simulated with a size/bandwidth transfer model and caches never evict.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .codec import encode_body, parse_int, read_line
from .errors import BadRequestError, ImageNotFoundError
from .slicing import FUNCTION_BY_NAME, FUNCTION_NAMES, FunctionKind, function_from_name

MB = 1_000_000

#: Node.js web stack measured around 400 MB; used for every default image.
DEFAULT_IMAGE_BYTES = 400 * MB


@dataclass(frozen=True)
class FunctionImage:
    """One function's container image; on the wire, a line of a
    SLICE_INSTANTIATE body holding ``_KEYS``."""

    image_id: str
    function: FunctionKind
    version: str
    size_bytes: int
    _KEYS = ("img", "fn", "ver", "size")

    def __post_init__(self):
        if self.size_bytes < 0:
            raise BadRequestError("image size must be >= 0")

    def to_bytes(self) -> bytes:
        values = (self.image_id, FUNCTION_NAMES[self.function], self.version, str(self.size_bytes))
        return encode_body(zip(self._KEYS, values))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FunctionImage":
        image_id, function, version, size = read_line(data, cls._KEYS, cls._KEYS)
        return cls(image_id, FUNCTION_BY_NAME[function], version, parse_int(size))


def _version_key(version: str) -> tuple:
    parts = []
    for token in version.split("."):
        try:
            parts.append((0, int(token)))
        except ValueError:
            parts.append((1, token))
    return tuple(parts)


class ImageCatalogue:
    """Images, at most one per (function, version), and the latest image per
    function by semantic version. The latest is kept in ``add`` (on a tie,
    the earlier image), so a lookup parses no version string."""

    def __init__(self, images: "list[FunctionImage] | None" = None):
        self._images: dict[tuple[FunctionKind, str], FunctionImage] = {}  # refuses a second image per key
        self._latest: dict[FunctionKind, FunctionImage] = {}
        for image in images or []:
            self.add(image)

    def add(self, image: FunctionImage) -> None:
        key = (image.function, image.version)
        if key in self._images:
            raise BadRequestError(
                f"duplicate catalogue entry for {image.function.name}/{image.version}"
            )
        self._images[key] = image
        latest = self._latest.get(image.function)
        if latest is None or _version_key(image.version) > _version_key(latest.version):
            self._latest[image.function] = image

    def __len__(self) -> int:
        return len(self._images)

    def lookup(self, function: FunctionKind) -> FunctionImage:
        """The latest image of ``function``."""
        try:
            return self._latest[function]
        except KeyError:
            raise ImageNotFoundError(f"no image for function {function.name}") from None

    # catalogue file: one record per line -- image_id,function,version,size_bytes
    @classmethod
    def load(cls, text: str) -> "ImageCatalogue":
        catalogue = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise BadRequestError(f"malformed catalogue line {line!r}")
            image_id, fn_name, version, size = parts
            catalogue.add(
                FunctionImage(
                    image_id=image_id.strip(),
                    function=function_from_name(fn_name.strip()),
                    version=version.strip(),
                    size_bytes=parse_int(size.strip()),
                )
            )
        return catalogue


def default_catalogue() -> ImageCatalogue:
    return ImageCatalogue(
        [
            FunctionImage(f"img-{fn.name.lower()}", fn, "1.0.0", DEFAULT_IMAGE_BYTES)
            for fn in FunctionKind
        ]
    )


@dataclass
class WorkerCache:
    """Images already present on one worker. Grows monotonically."""

    worker: str
    cached: set[str] = field(default_factory=set)
    bytes_transferred: int = 0

    def has(self, image: FunctionImage) -> bool:
        return image.image_id in self.cached

    def seed(self, images: "Iterable[FunctionImage] | ImageCatalogue") -> None:
        if isinstance(images, ImageCatalogue):
            images = list(images._images.values())
        for image in images:
            self.cached.add(image.image_id)


def pull_image(
    cache: WorkerCache,
    image: FunctionImage,
    bandwidth_bytes_per_s: float,
) -> float:
    """Simulated pull; returns the virtual duration in milliseconds.

    A cache hit costs nothing; a miss transfers size/bandwidth and caches
    the image at completion.
    """
    if bandwidth_bytes_per_s <= 0:
        raise BadRequestError("pull bandwidth must be > 0")
    if cache.has(image):
        return 0.0
    duration_ms = image.size_bytes / bandwidth_bytes_per_s * 1000.0
    cache.cached.add(image.image_id)
    cache.bytes_transferred += image.size_bytes
    return duration_ms
