"""Mesh file export: CSV (all six real coordinates), OBJ and PLY projections.

A mesh node is a point of C^3 ~ R^6 with coordinate names
(re1, im1, re2, im2, re3, im3).  OBJ/PLY take either three of those names or
the top-3 principal-component projection; the choice (and the PCA basis when
used) is recorded in a sidecar JSON file next to the mesh.  All numeric text
is written with 17 significant digits and no timestamps, so identical inputs
produce byte-identical files.
"""

import json

import numpy as np

from .errors import ConfigValidationError
from .grid import PeriodicGrid, format_float, write_rows

COORD_NAMES = ("re1", "im1", "re2", "im2", "re3", "im3")


def points_to_r6(points):
    """(ny, nx, 3) complex -> (ny*nx, 6) real, row-major nodes (a view of
    contiguous complex input)."""
    return np.ascontiguousarray(points, dtype=complex).reshape(-1, 3).view(float)


def r6_to_points(r6, ny, nx):
    r6 = np.asarray(r6)
    return (r6[:, 0::2] + 1j * r6[:, 1::2]).reshape(ny, nx, 3)


def save_mesh(mesh, path):
    head = ",".join(
        [str(mesh.grid.nx), str(mesh.grid.ny)]
        + [format_float(v) for v in (mesh.grid.lx, mesh.grid.ly, mesh.radius)]
    )
    with open(path, "w") as fh:
        fh.write(head + "\n")
        write_rows(fh, points_to_r6(mesh.points))


def load_mesh_points(path):
    """Returns (grid, radius, points) of a mesh written by save_mesh.

    Raises ConfigValidationError when the header is malformed, the file holds
    other than nx * ny rows of 6 values, or a value is not finite.
    """
    try:
        with open(path) as fh:
            head = fh.readline().strip().split(",")
            if len(head) != 5:
                raise ValueError(f"header has {len(head)} fields, not nx,ny,lx,ly,radius")
            grid = PeriodicGrid(int(head[0]), int(head[1]), float(head[2]), float(head[3]))
            radius = float(head[4])
            if not np.isfinite([grid.lx, grid.ly, radius]).all():
                raise ValueError(f"periods or radius ({grid.lx}, {grid.ly}, {radius}) not finite")
            r6 = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigValidationError(f"mesh file {path} is malformed: {exc}") from exc
    if r6.shape != (grid.nx * grid.ny, 6):
        raise ConfigValidationError(
            f"mesh file {path} holds {r6.shape[0]} rows of {r6.shape[-1]} values; its header "
            f"needs {grid.nx * grid.ny} rows of 6"
        )
    if not np.isfinite(r6).all():
        raise ConfigValidationError(f"mesh file {path} holds non-finite values")
    return grid, radius, r6_to_points(r6, grid.ny, grid.nx)


def grid_faces(nx, ny):
    """Two triangles per quad, wrapping both directions (torus topology);
    vertex index of node (i, j) is j*nx + i."""
    faces = []
    for j in range(ny):
        jn = (j + 1) % ny
        for i in range(nx):
            inx = (i + 1) % nx
            v00 = j * nx + i
            v10 = j * nx + inx
            v11 = jn * nx + inx
            v01 = jn * nx + i
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return faces


def resolve_projection(r6, projection):
    """Project (n, 6) coordinates to (n, 3) per the projection choice.

    projection is either "pca" or a comma-separated triple of coordinate
    names.  Returns (verts3, metadata dict describing the projection).
    """
    r6 = np.asarray(r6)
    if projection == "pca":
        center = r6.mean(axis=0)
        centered = r6 - center
        _u, _s, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[:3]
        verts = centered @ basis.T
        meta = {
            "projection": "pca",
            "center": [float(c) for c in center],
            "components": [[float(v) for v in row] for row in basis],
        }
        return verts, meta
    names = [n.strip() for n in projection.split(",")]
    if len(names) != 3 or any(n not in COORD_NAMES for n in names):
        raise ValueError(
            f"projection must be 'pca' or three of {COORD_NAMES}, got {projection!r}"
        )
    cols = [COORD_NAMES.index(n) for n in names]
    verts = r6[:, cols]
    return verts, {"projection": names}


def write_obj(path, verts, faces):
    lines = [f"v {format_float(x)} {format_float(y)} {format_float(z)}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ply(path, verts, faces):
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines = header
    lines += [f"{format_float(x)} {format_float(y)} {format_float(z)}" for x, y, z in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sidecar(path, meta):
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_mesh(grid, radius, points, out_stem, projection="pca"):
    """Write <stem>.obj, <stem>.ply and <stem>.meta.json; returns the paths."""
    r6 = points_to_r6(points)
    verts, meta = resolve_projection(r6, projection)
    faces = grid_faces(grid.nx, grid.ny)
    meta.update(
        {
            "grid": {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly},
            "radius": radius,
            "vertices": len(verts),
            "faces": len(faces),
        }
    )
    paths = (f"{out_stem}.obj", f"{out_stem}.ply", f"{out_stem}.meta.json")
    write_obj(paths[0], verts, faces)
    write_ply(paths[1], verts, faces)
    write_sidecar(paths[2], meta)
    return paths
