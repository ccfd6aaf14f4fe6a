"""Command-line front end: sweep/route/fit subcommands and flat-file output.

Config files are flat ``key = value`` text with JSON-style list syntax.
Unknown keys are hard errors so typos in experiment definitions fail loudly.
Floats are serialized with repr (shortest round-trip), which makes reruns
byte-identical.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .experiment import (MAX_BINS, CellFitError, ExperimentConfig, SceneParams,
                         WorkerLostError, build_scene, fit_models, run_sweep)
from .routing import WavefrontSpec, get_routes
from .scene import SceneError, build_graph
from .statfit import DegenerateDataError, DeviationDataset, make_histogram

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_SCENE_FAULT = 2
EXIT_IO = 3

# config key -> annotated type: int, float or a tuple of them; a fixed-size
# tuple such as tuple[float, float, float] also fixes the list length
_KEY_TYPES = {f.name: f.type for cls in (SceneParams, ExperimentConfig)
              for f in fields(cls) if f.name != "scene"}
_SCENE_KEYS = {f.name for f in fields(SceneParams)}
# the sweep's output tables, in writing order, and their header lines
_CSV_HEADERS = {
    "deviations.csv": "d_r,m_side,trial,antenna_index,phi_deg,last_ris_id,path_len",
    "fits.csv": "d_r,m_side,n_samples,n_failures,k_hat,theta_hat,sigma_hat,kld_gamma,"
                "kld_rayleigh,loglik_gamma,loglik_rayleigh",
    "histograms.csv": "d_r,m_side,bin_left,bin_right,count,density",
}


class ConfigError(Exception):
    pass


def parse_config_text(text):
    """Parse flat key = value config text into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'")
        try:
            parsed = json.loads(value.strip())
        # JSONDecodeError, an int past 4300 digits, or lists nested too deep
        except (ValueError, RecursionError):
            shown = repr(value.strip())
            if len(shown) > 80:
                shown = shown[:80] + " ... (cut)"
            raise ConfigError(f"key '{key}': unparseable value {shown}")
        raw[key] = parsed
    return raw


def _number(key, x, kind):
    """x as a finite `kind` (int or float); booleans, fractions and numbers
    past the float range are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"key '{key}': expected a number, got {json.dumps(x)}")
    try:
        finite = math.isfinite(x)
    except OverflowError:   # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"key '{key}': expected a finite number, got {x}")
    if kind is int and x != int(x):
        raise ConfigError(f"key '{key}': expected an integer, got {x}")
    return kind(x)


def _value(key, x, kind):
    """x parsed as the annotated type `kind` of config key `key`."""
    if get_origin(kind) is not tuple:
        return _number(key, x, kind)
    items = get_args(kind)
    if not isinstance(x, list):
        raise ConfigError(f"key '{key}': expected a list of numbers")
    if items[-1] is not Ellipsis and len(x) != len(items):
        raise ConfigError(f"key '{key}': expected a list of {len(items)} numbers")
    return tuple(_number(key, v, items[0]) for v in x)


def config_from_raw(raw, seed_override=None):
    values = {key: _value(key, x, _KEY_TYPES[key]) for key, x in raw.items()}
    if seed_override is not None:
        values["seed"] = seed_override
    try:
        scene = SceneParams(**{k: v for k, v in values.items() if k in _SCENE_KEYS})
        return ExperimentConfig(scene=scene, **{k: v for k, v in values.items()
                                                if k not in _SCENE_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path, seed_override=None):
    if path is None:
        return config_from_raw({}, seed_override)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return config_from_raw(parse_config_text(text), seed_override)


def _csv_row(values):
    """One CSV line of Python ints and floats; str of a float is its repr."""
    return ",".join(map(str, values))


def _write_csv(path, lines):
    """Write the lines to path; returns the sha256 hex digest of the bytes
    written."""
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _fail(message, code):
    """Report an error as one line on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_sweep(args):
    try:
        if args.threads < 0:
            raise ConfigError(f"--threads must be >= 0, got {args.threads}")
        config = load_config(args.config, args.seed)
    except ConfigError as exc:
        return _fail(exc, EXIT_BAD_CONFIG)
    started = datetime.now(timezone.utc).isoformat()
    try:
        results = run_sweep(config, threads=args.threads)
    except (SceneError, CellFitError, WorkerLostError) as exc:
        return _fail(exc, EXIT_SCENE_FAULT)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # manifest.json is written last, so it exists only beside a complete
        # run; drop a previous run's before any CSV is replaced
        (out / "manifest.json").unlink(missing_ok=True)
        lines = {name: [header] for name, header in _CSV_HEADERS.items()}
        for res in results:
            rep = res.report
            cell = f"{rep.d_r!r},{rep.m_side},"
            lines["deviations.csv"].extend(cell + _csv_row(record) for record in res.records)
            lines["fits.csv"].append(cell + _csv_row((
                rep.n_samples, rep.n_failures, rep.gamma.k_hat, rep.gamma.theta_hat,
                rep.rayleigh.sigma_hat, rep.kld_gamma, rep.kld_rayleigh,
                rep.gamma.log_likelihood, rep.rayleigh.log_likelihood)))
            hist = make_histogram(res.dataset, config.n_bins)
            edges = hist.bin_edges.tolist()
            lines["histograms.csv"].extend(cell + _csv_row(bin_) for bin_ in zip(
                edges, edges[1:], hist.counts.tolist(), hist.densities.tolist()))
        digests = {name: _write_csv(out / name, rows) for name, rows in lines.items()}
        manifest = {
            "tool": "pwesim",
            "version": __version__,
            "seed": config.seed,
            "config": {
                "d_r_values": list(config.d_r_values),
                "m_sides": list(config.m_sides),
                "n_trials": config.n_trials,
                "n_bins": config.n_bins,
                "scene": vars(config.scene).copy(),
            },
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "files": digests,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return EXIT_OK


def cmd_route(args):
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        return _fail(exc, EXIT_BAD_CONFIG)
    try:
        spec_raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    # ValueError: not UTF-8, not JSON, or an int past 4300 digits;
    # RecursionError: lists nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(f"cannot read spec: {exc}", EXIT_BAD_CONFIG)
    d_r = config.d_r_values[0]
    m_side = config.m_sides[0]
    try:
        scene = build_scene(config.scene, d_r, m_side)
        graph = build_graph(scene)
    except SceneError as exc:
        return _fail(f"cell (d_r={d_r}, M={m_side}): {exc}", EXIT_SCENE_FAULT)
    shape_error = f"spec must list {scene.rx.m} DoA vectors [x, y, z] of numbers"
    if not (isinstance(spec_raw, list) and len(spec_raw) == scene.rx.m
            and all(isinstance(v, list) and len(v) == 3
                    # JSON numbers only: a bool's type is bool, not int
                    and all(type(c) in (int, float) for c in v) for v in spec_raw)):
        return _fail(shape_error, EXIT_BAD_CONFIG)
    try:
        spec = WavefrontSpec(doas=spec_raw)
    except OverflowError:    # an int past the float range
        return _fail(shape_error, EXIT_BAD_CONFIG)
    except ValueError:    # a non-unit or NaN DoA
        return _fail("spec contains non-unit DoA vectors", EXIT_SCENE_FAULT)
    routes = get_routes(scene, graph, spec)
    payload = {
        "d_r": d_r,
        "m": scene.rx.m,
        "routes": [
            {
                "antenna_index": r.antenna_index,
                "last_ris_id": r.last_ris_id,
                "path": list(r.path),
                "realized_doa": [float(c) for c in r.realized_doa],
                "phi_deg": r.phi_deg,
            }
            for r in routes.routes
        ],
        "failures": [{"antenna_index": i, "reason": why}
                     for i, why in routes.failures],
    }
    try:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return EXIT_OK


def cmd_fit(args):
    import csv

    if not 2 <= args.bins <= MAX_BINS:
        return _fail(f"--bins must be between 2 and {MAX_BINS}", EXIT_BAD_CONFIG)
    try:
        with open(args.data, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "phi_deg" not in reader.fieldnames:
                return _fail("data file needs a phi_deg column", EXIT_BAD_CONFIG)
            samples = np.array([float(row["phi_deg"]) for row in reader])
    except (OSError, TypeError, ValueError, csv.Error) as exc:
        return _fail(exc, EXIT_BAD_CONFIG)
    if not samples.size or not np.all(np.isfinite(samples) & (samples >= 0)):
        return _fail("phi_deg values must be nonempty, finite and non-negative", EXIT_BAD_CONFIG)
    data = DeviationDataset(samples=samples, d_r=float("nan"), m=0)
    try:
        gamma, rayleigh, kld_gamma, kld_rayleigh = fit_models(data, args.bins)
    except (ValueError, DegenerateDataError) as exc:
        return _fail(exc, EXIT_BAD_CONFIG)
    payload = {
        "n": data.n,
        "gamma": {"k_hat": gamma.k_hat, "theta_hat": gamma.theta_hat,
                  "log_likelihood": gamma.log_likelihood},
        "rayleigh": {"sigma_hat": rayleigh.sigma_hat,
                     "log_likelihood": rayleigh.log_likelihood},
        "kld_gamma": kld_gamma,
        "kld_rayleigh": kld_rayleigh,
    }
    try:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwesim",
        description="Two-room programmable wireless environment wavefront "
                    "replication simulator and deviation statistics toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the (d_r, M) Monte-Carlo sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes, capped at the usable cores and at "
                        "the number of cells (0 or 1 = run in this process)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("route", help="route one wavefront spec")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--spec", required=True, help="JSON file of M unit DoA vectors")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("fit", help="fit Gamma/Rayleigh models to phi data")
    p.add_argument("--data", required=True, help="CSV file with a phi_deg column")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--bins", type=int, default=10, help="histogram bins for KLD")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
