"""Deterministic rendering of configurations as PPM rasters or SVG.

Vertices are drawn as filled discs at their planar positions
(a + b/2, b*sqrt(3)/2); chip counts map to colors: 0 light gray, 1 green,
2 red, 3 blue, 4 or more black.  Output bytes depend only on the input
configuration and the render options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sandpile import Configuration

PALETTE = {
    0: (200, 200, 200),
    1: (0, 170, 0),
    2: (220, 50, 50),
    3: (60, 90, 220),
}
OVERFULL_COLOR = (0, 0, 0)
BACKGROUND = (255, 255, 255)
MARGIN = 8  # pixels around the triangle
RADIUS_FRAC = 0.33  # disc radius as a fraction of scale
MAX_PIXELS = 10**8  # largest raster `render_ppm` builds; below 2**31, so int32 indexes it


def color_for(chips: int) -> tuple[int, int, int]:
    return PALETTE.get(chips, OVERFULL_COLOR)


@dataclass(frozen=True)
class RenderSpec:
    fmt: str = "ppm"  # "ppm" or "svg"
    scale: int = 12  # pixels per unit edge


def _positions(conf: Configuration, spec: RenderSpec) -> tuple[np.ndarray, np.ndarray]:
    """The vertices' planar x and y in pixels, y upwards."""
    a, b = conf.graph.points.T
    return (a + b / 2) * spec.scale + MARGIN, b * (math.sqrt(3) / 2) * spec.scale


def render(conf: Configuration, spec: RenderSpec = RenderSpec()) -> bytes:
    return bytes(render_buffer(conf, spec))


def render_buffer(conf: Configuration, spec: RenderSpec = RenderSpec()) -> bytes | np.ndarray:
    """The rendered file as a buffer, for a file's `write`: the uint8 array
    of `ppm_buffer` or the SVG bytes.  Writing it spares the copy into
    `bytes` that `render` makes of a PPM raster."""
    if spec.fmt == "ppm":
        return ppm_buffer(conf, spec)
    if spec.fmt == "svg":
        return render_svg(conf, spec)
    raise ValueError("format must be 'ppm' or 'svg'")


def _disc_stencil(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of the pixels within `radius` of a disc's
    center pixel."""
    span = np.arange(-math.ceil(radius), math.ceil(radius) + 1, dtype=np.int32)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    near = dy * dy + dx * dx <= radius * radius
    return dy[near], dx[near]


def _ppm_size(side: int, scale: int) -> tuple[int, int]:
    width = math.ceil(side * scale) + 2 * MARGIN + 1
    return width, math.ceil(side * scale * math.sqrt(3) / 2) + 2 * MARGIN + 1


def render_ppm(conf: Configuration, spec: RenderSpec = RenderSpec()) -> bytes:
    """Binary PPM of the configuration's discs: `ppm_buffer` as `bytes`."""
    return ppm_buffer(conf, spec).tobytes()


def ppm_buffer(conf: Configuration, spec: RenderSpec = RenderSpec()) -> np.ndarray:
    """Binary PPM of the configuration's discs, as one uint8 array holding
    the whole file, header included.  Where discs overlap (small
    scales), the vertex with the highest index owns the pixel.  A raster of
    more than `MAX_PIXELS` pixels is refused with ValueError, naming the
    largest scale that fits, before any buffer is built.

    One render holds two raster-size buffers: the owner map (vertex + 1
    per pixel, 0 for background, in the smallest unsigned type that holds
    the vertex count) and the returned file.  Pixel indices are int32,
    which `MAX_PIXELS` < 2**31 keeps exact."""
    side = 1 << conf.graph.level
    width, height = _ppm_size(side, spec.scale)
    if width * height > MAX_PIXELS:
        # The raster without its margins bounds the scale from above.
        fits = math.isqrt(math.ceil(MAX_PIXELS / (side * side * math.sqrt(3) / 2)))
        while fits and math.prod(_ppm_size(side, fits)) > MAX_PIXELS:
            fits -= 1
        raise ValueError(
            f"a {width} x {height} raster has {width * height} pixels, above the limit of {MAX_PIXELS}; "
            + (f"the largest scale that fits is {fits}" if fits else "no scale fits")
        )
    dy, dx = _disc_stencil(max(1.0, spec.scale * RADIUS_FRAC))
    # Flip vertically: image row 0 is the top of the triangle.
    x, y = _positions(conf, spec)
    iy = (height - 1 - MARGIN - np.round(y).astype(np.int32))[:, None] + dy
    ix = np.round(x).astype(np.int32)[:, None] + dx
    inside = (iy >= 0) & (iy < height) & (ix >= 0) & (ix < width)
    iy *= width
    iy += ix
    pixel = iy[inside]
    n = conf.graph.n_vertices
    owner = np.zeros(width * height, dtype=np.min_scalar_type(n))
    vertex = np.broadcast_to(np.arange(1, n + 1, dtype=owner.dtype)[:, None], inside.shape)
    np.maximum.at(owner, pixel, vertex[inside])
    rgb = {chips: bytes(color_for(chips)) for chips in set(conf.chips)}
    colors = np.frombuffer(bytes(BACKGROUND) + b"".join(map(rgb.__getitem__, conf.chips)), dtype="V3")
    header = f"P6\n{width} {height}\n255\n".encode()
    data = np.empty(len(header) + 3 * width * height, dtype=np.uint8)
    data[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    raster = data[len(header) :]
    # Fill the top row, then copy it down: assigning the color tuple to
    # every pixel, or one channel at a time, is several times slower.
    rows = raster.reshape(height, width, 3)
    rows[0] = BACKGROUND
    rows[1:] = rows[0]
    # One 3-byte item per pixel: a scatter of (k, 3) rows is slower.
    raster.view("V3")[pixel] = colors[owner[pixel]]
    return data


def render_svg(conf: Configuration, spec: RenderSpec = RenderSpec()) -> bytes:
    # One pixel narrower and lower than the PPM raster.
    width, height = (v - 1 for v in _ppm_size(1 << conf.graph.level, spec.scale))
    radius = max(1.0, spec.scale * RADIUS_FRAC)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    tails = {
        chips: f'" r="{radius:.2f}" fill="rgb({",".join(map(str, color_for(chips)))})"/>'
        for chips in set(conf.chips)
    }
    # A level-n gasket has 2**(n+1) + 1 distinct x and 2**n + 1 distinct y
    # values for about 3**n discs: format each value once, join per disc.
    x, y = _positions(conf, spec)
    xs, x_at = np.unique(x, return_inverse=True)
    ys, y_at = np.unique(height - MARGIN - y, return_inverse=True)
    heads = [f'<circle cx="{cx:.2f}" cy="' for cx in xs.tolist()]
    cys = [f"{cy:.2f}" for cy in ys.tolist()]
    lines += [heads[i] + cys[j] + tails[chips] for i, j, chips in zip(x_at.tolist(), y_at.tolist(), conf.chips)]
    lines.append("</svg>\n")
    return "\n".join(lines).encode()
