"""Container image catalogue and per-worker image caches.

The catalogue is cloud-resident and immutable once loaded; pulls are
simulated with a size/bandwidth transfer model and caches never evict.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .codec import parse_int
from .errors import BadRequestError, ImageNotFoundError
from .slicing import FUNCTION_BY_NAME, FUNCTION_NAMES, FunctionKind, function_from_name

MB = 1_000_000

#: Node.js web stack measured around 400 MB; used for every default image.
DEFAULT_IMAGE_BYTES = 400 * MB


@dataclass(frozen=True)
class FunctionImage:
    image_id: str
    function: FunctionKind
    version: str
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise BadRequestError("image size must be >= 0")

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The image's line in a SLICE_INSTANTIATE body, built once per image."""
        return (("img", self.image_id), ("fn", FUNCTION_NAMES[self.function]),
                ("ver", self.version), ("size", str(self.size_bytes)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "FunctionImage":
        rec = dict(pairs)
        return cls(rec["img"], FUNCTION_BY_NAME[rec["fn"]], rec["ver"], parse_int(rec["size"]))


def _version_key(version: str) -> tuple:
    parts = []
    for token in version.split("."):
        try:
            parts.append((0, int(token)))
        except ValueError:
            parts.append((1, token))
    return tuple(parts)


class ImageCatalogue:
    """(function, version) -> image, with semantic "latest" resolution. The
    latest per function is kept in ``add`` (on a tie, the earlier image), so
    a lookup parses no version string."""

    def __init__(self, images: "list[FunctionImage] | None" = None):
        self._images: dict[tuple[FunctionKind, str], FunctionImage] = {}
        self._by_id: dict[str, FunctionImage] = {}
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
        self._by_id[image.image_id] = image
        latest = self._latest.get(image.function)
        if latest is None or _version_key(image.version) > _version_key(latest.version):
            self._latest[image.function] = image

    def __len__(self) -> int:
        return len(self._images)

    def by_id(self, image_id: str) -> FunctionImage:
        try:
            return self._by_id[image_id]
        except KeyError:
            raise ImageNotFoundError(f"no image with id {image_id!r}") from None

    def lookup(self, function: FunctionKind, version: str = "latest") -> FunctionImage:
        if version != "latest":
            try:
                return self._images[(function, version)]
            except KeyError:
                raise ImageNotFoundError(
                    f"no image for {function.name}/{version}"
                ) from None
        try:
            return self._latest[function]
        except KeyError:
            raise ImageNotFoundError(f"no image for function {function.name}") from None

    # catalogue file: one record per line -- image_id,function,version,size_bytes
    def dump(self) -> str:
        lines = [
            f"{img.image_id},{img.function.name.lower()},{img.version},{img.size_bytes}"
            for img in sorted(self._by_id.values(), key=lambda i: i.image_id)
        ]
        return "\n".join(lines) + "\n"

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
                    size_bytes=int(size),
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
            images = list(images._by_id.values())
        for image in images:
            self.cached.add(image.image_id)


def pull_image(
    cache: WorkerCache,
    image: FunctionImage,
    bandwidth_bytes_per_s: float,
    *,
    extra_delay_ms: float = 0.0,
) -> float:
    """Simulated pull; returns the virtual duration in milliseconds.

    A cache hit costs nothing; a miss transfers size/bandwidth (plus an
    optional link propagation term) and caches the image at completion.
    """
    if bandwidth_bytes_per_s <= 0:
        raise BadRequestError("pull bandwidth must be > 0")
    if cache.has(image):
        return 0.0
    duration_ms = image.size_bytes / bandwidth_bytes_per_s * 1000.0 + extra_delay_ms
    cache.cached.add(image.image_id)
    cache.bytes_transferred += image.size_bytes
    return duration_ms
