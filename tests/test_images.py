import pytest

from edgeslice.errors import BadRequestError, ImageNotFoundError
from edgeslice.images import (
    DEFAULT_IMAGE_BYTES,
    FunctionImage,
    ImageCatalogue,
    WorkerCache,
    default_catalogue,
    pull_image,
)
from edgeslice.slicing import FunctionKind

MB = 1_000_000


def test_default_catalogue_images_are_400mb():
    cat = default_catalogue()
    image = cat.lookup(FunctionKind.REGISTRATION)
    assert image.size_bytes == 400 * MB == DEFAULT_IMAGE_BYTES


def test_lookup_missing_function():
    cat = ImageCatalogue([FunctionImage("i", FunctionKind.RETRIEVE, "1.0.0", MB)])
    with pytest.raises(ImageNotFoundError):
        cat.lookup(FunctionKind.DISCOVERY)


def test_a_second_image_for_one_function_and_version_is_refused():
    cat = ImageCatalogue([FunctionImage("i", FunctionKind.RETRIEVE, "1.0.0", MB)])
    with pytest.raises(BadRequestError, match="duplicate"):
        cat.add(FunctionImage("j", FunctionKind.RETRIEVE, "1.0.0", 2 * MB))
    cat.add(FunctionImage("k", FunctionKind.RETRIEVE, "1.1.0", 2 * MB))
    assert len(cat) == 2
    assert cat.lookup(FunctionKind.RETRIEVE).image_id == "k"
    with pytest.raises(BadRequestError, match="duplicate"):
        ImageCatalogue.load("a,retrieve,1.0.0,1\nb,retrieve,1.0.0,2\n")


def test_latest_resolves_by_semantic_version():
    versions = ["1.0.0", "1.2.0", "1.10.0"]
    cat = ImageCatalogue(
        [FunctionImage(f"i{v}", FunctionKind.RETRIEVE, v, MB) for v in versions]
    )
    # oracle: sort version triples numerically
    expected = sorted(versions, key=lambda v: tuple(int(x) for x in v.split(".")))[-1]
    assert cat.lookup(FunctionKind.RETRIEVE).version == expected == "1.10.0"


def test_catalogue_file_loads_one_image_per_line():
    text = "# id,function,version,size\n" + "".join(
        f"img-{fn.name.lower()}, {fn.name.lower()} ,1.0.0, {400 * MB}\n" for fn in FunctionKind
    )
    cat = ImageCatalogue.load(text)
    assert len(cat) == len(default_catalogue()) == len(FunctionKind)
    assert cat.lookup(FunctionKind.NOTIFICATION) == FunctionImage(
        "img-notification", FunctionKind.NOTIFICATION, "1.0.0", 400 * MB
    )


def test_cold_pull_duration_is_size_over_bandwidth():
    cache = WorkerCache("edge0")
    image = FunctionImage("img", FunctionKind.REGISTRATION, "1.0.0", 400 * MB)
    assert pull_image(cache, image, 100 * MB) == 4000.0  # 4.0 s


def test_warm_pull_is_free():
    cache = WorkerCache("edge0")
    image = FunctionImage("img", FunctionKind.REGISTRATION, "1.0.0", 400 * MB)
    cache.seed([image])
    assert pull_image(cache, image, 100 * MB) == 0.0


def test_django_sized_pull():
    cache = WorkerCache("edge0")
    image = FunctionImage("img", FunctionKind.RETRIEVE, "1.0.0", 150 * MB)
    assert pull_image(cache, image, 100 * MB) == 1500.0  # 1.5 s


def test_seeding_with_a_catalogue_caches_every_image_it_holds():
    """Older versions too, not only the latest of each function."""
    old, new = (FunctionImage(f"img-r{v}", FunctionKind.RETRIEVE, v, MB) for v in ("1.0.0", "2.0.0"))
    cache = WorkerCache("edge0")
    cache.seed(ImageCatalogue([new, old]))
    assert cache.cached == {"img-r1.0.0", "img-r2.0.0"}
    assert pull_image(cache, old, 100 * MB) == pull_image(cache, new, 100 * MB) == 0.0


def test_pull_idempotence():
    cache = WorkerCache("edge0")
    image = FunctionImage("img", FunctionKind.RETRIEVE, "1.0.0", 200 * MB)
    first = pull_image(cache, image, 100 * MB)
    second = pull_image(cache, image, 100 * MB)
    assert first + second == first


def test_transfer_conservation_and_monotonic_cache():
    cache = WorkerCache("edge0")
    images = [
        FunctionImage(f"img{i}", fn, "1.0.0", (i + 1) * 10 * MB)
        for i, fn in enumerate(FunctionKind)
    ]
    seen_sizes = 0
    for image in images + images:  # every image pulled twice
        before = set(cache.cached)
        pull_image(cache, image, 100 * MB)
        assert before <= cache.cached  # cache only grows
    seen_sizes = sum(img.size_bytes for img in images)
    assert cache.bytes_transferred == seen_sizes


@pytest.mark.parametrize("versions", [
    ["1.10.0", "1.2.0", "1.0.0"],
    ["1.2.0", "1.10.0", "1.10"],
    ["1.0", "01.0", "1.0.0-rc", "0.9"],  # 1.0 and 01.0 tie: the earlier stays latest
])
def test_latest_is_kept_current_as_images_are_added(versions):
    def key(image):
        return tuple((1, t) if not t.isdigit() else (0, int(t)) for t in image.version.split("."))

    cat = ImageCatalogue()
    added = []
    for v in versions:
        image = FunctionImage(f"i{v}", FunctionKind.RETRIEVE, v, MB)
        cat.add(image)
        added.append(image)
        assert cat.lookup(FunctionKind.RETRIEVE) is max(added, key=key)  # max keeps the first
