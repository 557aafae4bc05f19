"""The mesh node file and its export as OBJ and PLY projections.

The surface stage stores the points of a mesh as a node file (grid.save_nodes)
of mesh_record and the (ny, nx, 3) complex points; the export stage reads them
back (grid.load_nodes) with the record of its own run.  A mesh
node is a point of C^3 ~ R^6 with coordinate names (re1, im1, re2, im2, re3,
im3).  OBJ/PLY take either three of those names or the top-3
principal-component projection; the choice (and the PCA basis when used) is
recorded in a sidecar JSON file next to the mesh.  The OBJ writes its numbers
as text with 17 significant digits, the PLY as binary little-endian doubles
and ints, and neither holds a timestamp, so identical inputs produce
byte-identical files.
"""

import json

import numpy as np

from .grid import grid_record, load_nodes, save_nodes, write_rows

EXPORT_SUFFIXES = (".obj", ".ply", ".meta.json")  # the files export_mesh writes after its stem

COORD_NAMES = ("re1", "im1", "re2", "im2", "re3", "im3")


def points_to_r6(points):
    """(ny, nx, 3) complex -> (ny*nx, 6) real, row-major nodes (a view of
    contiguous complex input)."""
    return np.ascontiguousarray(points, dtype=complex).reshape(-1, 3).view(float)


def mesh_record(grid, radius, frame_sha256):
    """The record of a mesh file: the grid's, then the sphere radius and the
    hex digest of the frame file bytes the points were built from."""
    return grid_record(grid) + (("radius", radius), ("frame_sha256", frame_sha256))


def save_mesh(grid, radius, points, path, frame_sha256):
    """Write the (ny, nx, 3) complex points of a mesh as a node file."""
    save_nodes(path, mesh_record(grid, radius, frame_sha256), points)


def load_mesh_points(path, grid, radius, frame_sha256):
    """The (ny, nx, 3) complex points of a mesh that save_mesh wrote with the
    same grid, radius and frame digest; raises ConfigValidationError as
    grid.load_nodes does."""
    record = mesh_record(grid, radius, frame_sha256)
    return load_nodes(path, "surface", record, (grid.ny, grid.nx, 3))[0]


def grid_faces(nx, ny):
    """Two triangles per quad, wrapping both directions (torus topology);
    vertex index of node (i, j) is j*nx + i.  Returns a (2*nx*ny, 3) int
    array whose rows 2*(j*nx + i) and 2*(j*nx + i) + 1 are quad (i, j)'s."""
    v00 = np.arange(ny * nx).reshape(ny, nx)
    v10, v01 = np.roll(v00, -1, axis=1), np.roll(v00, -1, axis=0)
    v11 = np.roll(v10, -1, axis=0)
    return np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)


def projection_names(projection):
    """The coordinate names of a named projection "a,b,c"; raises ValueError
    unless they are three distinct names of COORD_NAMES."""
    names = [n.strip() for n in projection.split(",")]
    if len(set(names)) != 3 or any(n not in COORD_NAMES for n in names):
        raise ValueError(
            f"projection must be 'pca' or three distinct names of {COORD_NAMES}, "
            f"got {projection!r}"
        )
    return names


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
    names = projection_names(projection)
    cols = [COORD_NAMES.index(n) for n in names]
    verts = r6[:, cols]
    return verts, {"projection": names}


def write_obj(path, verts, faces):
    with open(path, "w") as fh:
        write_rows(fh, verts, "v %.17g %.17g %.17g\n")
        write_rows(fh, faces + 1, "f %d %d %d\n")


def write_ply(path, verts, faces):
    """Binary little-endian PLY: each vertex three '<f8', each face a uchar 3
    and three '<i4', packed in 13 bytes."""
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(verts)}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    packed = np.empty(len(faces), dtype=[("n", "u1"), ("v", "<i4", (3,))])
    packed["n"] = 3
    packed["v"] = faces
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(np.asarray(verts, dtype="<f8").tobytes())
        fh.write(packed.tobytes())


def export_mesh(grid, radius, points, out_stem, projection):
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
    paths = tuple(out_stem + suffix for suffix in EXPORT_SUFFIXES)
    write_obj(paths[0], verts, faces)
    write_ply(paths[1], verts, faces)
    with open(paths[2], "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
