"""Command line front end.

Every command validates its inputs, writes its outputs atomically (temp file
plus rename), and drops a run manifest next to them recording the input hash,
parameters, tolerances, package version, and wall time; `track` adds the solved
steps and per-step slice sizes under `diagnostics`. Exit codes: 0 on
success, 1 for input errors, 2 for geometric degeneracy, 3 for solver or
internal failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .analysis import (
    EMBED_ZERO_COEFF,
    export_analysis,
    hgc_values,
    hodge_spectral_clustering,
    node_clustering,
    node_labels_to_csv,
)
from .complexes import sublevel, write_complex_json
from .errors import HodgeTrackError, InputError
from .geometry import (
    EPS_BAND,
    delaunay_2d,
    filtration_values,
    import_complex,
    load_point_cloud,
    save_point_cloud,
)
from .persistence import (
    THETA_DEFAULT,
    build_grid,
    export_diagram,
    track,
)
from .spectral import (
    CLUSTER_COEFF,
    RESIDUAL_COEFF,
    TYPE_TOL_COEFF,
    ZERO_TOL_COEFF,
    spectrum_at,
)
from .synthetic import GENERATOR_NAME, generate

BASE_TOLERANCES = {
    "predicate_band": EPS_BAND,
    "zero_tol_coeff": ZERO_TOL_COEFF,
    "type_tol_coeff": TYPE_TOL_COEFF,
    "residual_coeff": RESIDUAL_COEFF,
    "cluster_coeff": CLUSTER_COEFF,
}


@dataclass
class RunManifest:
    command: str
    parameters: dict
    tolerances: dict
    version: str
    input_sha256: str | None
    outputs: list[str] = field(default_factory=list)
    rng: str | None = None
    duration_s: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_call(path, writer) -> None:
    """Run a writer(path) against a temp file, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, payload: str) -> None:
    _atomic_call(path, lambda tmp: Path(tmp).write_text(payload))


def _export(prefix: str, formats, export, result) -> list[str]:
    """Write PREFIX.<fmt> for each format through export(result, path, fmt)."""
    outputs = []
    for fmt in formats:
        out = f"{prefix}.{fmt}"
        _atomic_call(out, lambda tmp, fmt=fmt: export(result, tmp, fmt))
        outputs.append(out)
    return outputs


def _write_manifest(args, started: float, parameters: dict, outputs: list[str],
                    tolerances: dict = BASE_TOLERANCES, **extra) -> None:
    """Write PREFIX.manifest.json (or OUT.manifest.json) for this command.

    The input file named in parameters, if any, is hashed; extra fills the
    remaining RunManifest fields (rng, diagnostics).
    """
    manifest = RunManifest(
        command=args.command,
        parameters=parameters,
        tolerances=tolerances,
        version=__version__,
        input_sha256=_sha256(parameters["input"]) if "input" in parameters else None,
        outputs=outputs,
        duration_s=time.monotonic() - started,
        **extra,
    )
    base = args.out_prefix if hasattr(args, "out_prefix") else args.out
    payload = json.dumps(asdict(manifest), indent=1, sort_keys=True) + "\n"
    _atomic_write(f"{base}.manifest.json", payload)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodgetrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic point cloud CSV")
    p.add_argument("--preset", required=True,
                   choices=["four-disks", "annulus", "two-clusters"])
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("triangulate", help="point CSV to filtered complex JSON")
    p.add_argument("input", help="point cloud CSV")
    p.add_argument("--out", required=True, help="output complex JSON path")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("spectrum", help="typed spectrum of one slice")
    p.add_argument("input", help="complex JSON")
    p.add_argument("--t", type=float, default=None,
                   help="threshold (default: largest filtration value)")
    p.add_argument("--dim", type=int, default=1, help="chain dimension")
    p.add_argument("--num", type=int, default=40,
                   help="eigenpairs to report, 0 for all")
    p.add_argument("--include-vectors", action="store_true")
    p.add_argument("--out", required=True, help="output spectrum JSON path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("track", help="eigenvector trajectories across the filtration")
    p.add_argument("input", help="complex JSON")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--num", type=int, default=40, help="eigenpairs per step")
    p.add_argument("--steps", type=int, default=None,
                   help="subsample the grid to this many thresholds")
    p.add_argument("--theta", type=float, default=THETA_DEFAULT,
                   help="minimum similarity for a match")
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX.csv, PREFIX.json, PREFIX.svg")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("cluster", help="spectral clustering of slice simplices")
    p.add_argument("input", help="complex JSON")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--mode", default="curl",
                   choices=["harmonic", "gradient", "curl", "total"])
    p.add_argument("--num-eigvecs", type=int, default=4, dest="num_eigvecs",
                   help="number of eigenvectors in the embedding")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", action="store_true",
                   help="also derive vertex labels by incidence majority")
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX.csv, PREFIX.svg")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("hgc", help="per-simplex subspace activity triples")
    p.add_argument("input", help="complex JSON")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--num", type=int, default=40,
                   help="eigenpairs examined")
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX.csv, PREFIX.svg")
    p.set_defaults(func=cmd_hgc)

    return parser


def cmd_generate(args) -> int:
    started = time.monotonic()
    points = generate(args.preset, args.n, args.seed)
    _atomic_call(args.out, lambda tmp: save_point_cloud(points, tmp))
    _write_manifest(args, started, {"preset": args.preset, "n": args.n, "seed": args.seed},
                    [args.out], tolerances={}, rng=GENERATOR_NAME)
    print(f"wrote {args.out} ({len(points)} points)")
    return 0


def cmd_triangulate(args) -> int:
    started = time.monotonic()
    cloud = load_point_cloud(args.input)
    fc = filtration_values(delaunay_2d(cloud))
    _atomic_call(args.out, lambda tmp: write_complex_json(fc, tmp))
    _write_manifest(args, started, {"input": args.input}, [args.out],
                    tolerances={"predicate_band": EPS_BAND})
    counts = ", ".join(f"{fc.n_simplices(k)} dim-{k}" for k in fc.dims())
    print(f"wrote {args.out} ({counts})")
    return 0


def _load_with_default_t(args):
    fc = import_complex(args.input)
    t = fc.max_value if args.t is None else args.t
    return fc, float(t)


def cmd_spectrum(args) -> int:
    started = time.monotonic()
    fc, t = _load_with_default_t(args)
    m = None if args.num == 0 else args.num
    spec = spectrum_at(fc, t, args.dim, m=m)
    payload = json.dumps(
        spec.to_json_dict(include_vectors=args.include_vectors),
        indent=1,
        sort_keys=True,
    ) + "\n"
    _atomic_write(args.out, payload)
    _write_manifest(args, started,
                    {"input": args.input, "t": t, "dim": args.dim, "num": args.num,
                     "include_vectors": bool(args.include_vectors)},
                    [args.out])
    counts = spec.counts()
    print(
        f"wrote {args.out} ({len(spec)} pairs: {counts['harmonic']} harmonic, "
        f"{counts['gradient']} gradient, {counts['curl']} curl)"
    )
    return 0


def cmd_track(args) -> int:
    started = time.monotonic()
    fc = import_complex(args.input)
    grid = build_grid(fc, args.dim, m=args.num, steps=args.steps)
    ts = track(fc, grid, theta=args.theta)
    outputs = _export(args.out_prefix, ("csv", "json", "svg"), export_diagram, ts)
    _write_manifest(args, started,
                    {"input": args.input, "dim": args.dim, "num": args.num,
                     "steps": args.steps, "theta": args.theta,
                     "grid": [float(x) for x in grid.thresholds]},
                    outputs, tolerances=dict(BASE_TOLERANCES, theta=args.theta),
                    diagnostics={"solved_steps": ts.solved_steps, "slice_sizes": ts.slice_sizes})
    print(
        f"wrote {', '.join(outputs)} ({len(ts)} trajectories over "
        f"{ts.n_steps} steps)"
    )
    return 0


def cmd_cluster(args) -> int:
    started = time.monotonic()
    fc, t = _load_with_default_t(args)
    sl = sublevel(fc, t)
    assign = hodge_spectral_clustering(
        sl, args.dim, args.num_eigvecs, args.clusters, mode=args.mode, seed=args.seed
    )
    outputs = _export(args.out_prefix, ("csv", "svg"), export_analysis, assign)
    if args.nodes:
        vertex_ids, labels = node_clustering(assign, sl)
        out = f"{args.out_prefix}_nodes.csv"
        _atomic_write(out, node_labels_to_csv(vertex_ids, labels))
        outputs.append(out)
    _write_manifest(args, started,
                    {"input": args.input, "t": t, "dim": args.dim,
                     "mode": args.mode, "num_eigvecs": args.num_eigvecs,
                     "clusters": args.clusters, "seed": args.seed,
                     "nodes": bool(args.nodes)},
                    outputs, tolerances=dict(BASE_TOLERANCES, embed_zero_coeff=EMBED_ZERO_COEFF),
                    rng=GENERATOR_NAME)
    print(f"wrote {', '.join(outputs)} (inertia {assign.inertia:.6g})")
    return 0


def cmd_hgc(args) -> int:
    started = time.monotonic()
    fc, t = _load_with_default_t(args)
    sl = sublevel(fc, t)
    result = hgc_values(sl, args.dim, args.num)
    outputs = _export(args.out_prefix, ("csv", "svg"), export_analysis, result)
    _write_manifest(args, started,
                    {"input": args.input, "t": t, "dim": args.dim, "num": args.num}, outputs)
    print(f"wrote {', '.join(outputs)}")
    return 0


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except HodgeTrackError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:  # internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
