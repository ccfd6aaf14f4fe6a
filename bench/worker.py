"""One measurement in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py setup --config CFG
        import pwesim.cli, then build_scene + build_graph for every cell of
        CFG (import only without --config); reports setup_s.
    python3 bench/worker.py call [--spans FILE] -- ARGV...
        one timed pwesim.cli.main(ARGV) after imports; reports wall_s, the
        exit code and ru_maxrss. With --spans the call is traced and the
        spans and counts are written to FILE when it ends.

The program is imported from src/ of the checkout that holds this file.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import pwesim.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"pwesim imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(config_path):
    t0 = time.perf_counter()
    cli = _import_cli()
    if config_path:
        from pwesim.experiment import build_scene
        from pwesim.scene import build_graph
        config = cli.load_config(config_path)
        for m in config.m_sides:
            for d in config.d_r_values:
                build_graph(build_scene(config.scene, d, m))
    return {"setup_s": time.perf_counter() - t0}


def call(argv, spans_path):
    cli = _import_cli()
    main = cli.main
    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        main = tracing.install(tracer)
    t0 = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - t0
    if tracer is not None:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans,
                                                "counts": tracer.counts}))
    return {"rc": rc, "wall_s": wall,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "call"))
    ap.add_argument("--config")
    ap.add_argument("--spans")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    out = setup(args.config) if args.mode == "setup" else call(argv[cut + 1:], args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
