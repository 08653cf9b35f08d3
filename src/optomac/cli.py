"""Command line front end: run scenarios, write artifacts, verify goldens.

Examples
--------
Run the hidden-terminal scenario under both MAC variants::

    optomac --scenario hidden_terminal --protocol basic
    optomac --scenario hidden_terminal --protocol handshake

Sweep seeds and write one artifact directory per seed::

    optomac --scenario photothermal --seeds 0..19 --out runs/photo

Re-run a recorded deployment and check it still reproduces the golden
memory snapshot and trace byte for byte::

    optomac --config deploy.json --out runs/check --verify golden/
"""

from __future__ import annotations

import argparse
import difflib
import io
import sys
from pathlib import Path

from . import config as config_mod
from .config import ConfigError, WorldConfig
from .scenarios import ScenarioResult, default_config, run_scenario
from .trace import LEVELS, NullTrace, TraceWriter

ARTIFACTS = ("trace.jsonl", "metrics.json", "memory.txt", "patterns.txt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomac",
        description="Simulate laser-clocked in-vivo optical networks.")
    parser.add_argument("--config", type=Path, default=None,
                        help="deployment JSON (defaults to the scenario's "
                             "packaged fixture)")
    parser.add_argument("--scenario", default=None,
                        choices=sorted(config_mod.SCENARIO_NAMES),
                        help="scenario to run (defaults to the config's)")
    parser.add_argument("--protocol", default=None,
                        choices=config_mod.PROTOCOL_NAMES,
                        help="MAC variant (defaults to the config's)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (defaults to the config's)")
    parser.add_argument("--seeds", default=None, metavar="A..B",
                        help="inclusive seed range; runs them in order")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="hard stop after this many clock cycles")
    parser.add_argument("--trace-level", default="events", choices=LEVELS,
                        help="trace verbosity (default: events)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace/metrics/memory/pattern "
                             "artifacts")
    parser.add_argument("--verify", type=Path, default=None, metavar="GOLDEN",
                        help="compare artifacts against a golden directory; "
                             "exit 1 on any difference")
    parser.add_argument("--dump-patterns", action="store_true",
                        help="print every node's gain table and exit")
    return parser


def _parse_seeds(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("seed range must look like A..B")
    a, b = int(lo), int(hi)
    if b < a:
        raise ValueError("seed range must be ascending")
    return range(a, b + 1)


def _load_config(args) -> WorldConfig:
    if args.config is not None:
        return config_mod.load_path(args.config)
    if args.scenario is None:
        raise ConfigError(["need --config or --scenario"])
    return default_config(args.scenario)


def _patterns_text(cfg: WorldConfig) -> str:
    out = io.StringIO()
    for spec in cfg.nodes:
        out.write(f"node {spec.name} address "
                  f"{config_mod.format_address(spec.address)}\n")
        out.write(spec.table.to_text())
    return out.getvalue()


def _artifact_map(result: ScenarioResult, trace: TraceWriter) -> dict[str, str]:
    return {
        "trace.jsonl": trace.getvalue(),
        "metrics.json": result.metrics.to_json() + "\n",
        "memory.txt": result.memory_snapshot(),
        "patterns.txt": _patterns_text(result.cfg),
    }


def _write_artifacts(directory: Path, artifacts: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, body in artifacts.items():
        (directory / name).write_text(body, encoding="utf-8")


def _verify(golden: Path, artifacts: dict[str, str]) -> list[str]:
    """Diff produced artifacts against whichever goldens exist."""
    problems: list[str] = []
    compared = 0
    for name, body in artifacts.items():
        ref = golden / name
        if not ref.is_file():
            continue
        compared += 1
        want = ref.read_text(encoding="utf-8")
        if want == body:
            continue
        diff = list(difflib.unified_diff(
            want.splitlines(), body.splitlines(),
            fromfile=str(ref), tofile=f"run/{name}", lineterm="", n=1))
        head = "\n".join(diff[:12])
        problems.append(f"{name}: differs from golden\n{head}")
    if compared == 0:
        problems.append(f"{golden}: contains none of {', '.join(ARTIFACTS)}")
    return problems


def _summary_line(result: ScenarioResult, protocol: str, seed: int) -> str:
    m = result.metrics.summary()
    return (f"{result.name} protocol={protocol} seed={seed} "
            f"status={result.status} icycles={result.icycles} "
            f"issued={m['issued']} delivered={m['delivered']} "
            f"requests={m['requests_issued']}/{m['requests_served']} "
            f"ratio={m['delivery_ratio']:.3f} exits={m['exits']} "
            f"retries={m['retries']} dose={m['total_dose']:g}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        seeds = (_parse_seeds(args.seeds) if args.seeds is not None
                 else [args.seed if args.seed is not None else cfg.seed])
    except (ConfigError, ValueError, OSError) as exc:
        print(f"optomac: {exc}", file=sys.stderr)
        return 2

    if args.dump_patterns:
        # UTF-8 whatever the locale, as the artifacts are written; a
        # text-only stream (an in-process redirect) takes the text itself
        text = _patterns_text(cfg)
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
        return 0

    sweep = seeds[0] != seeds[-1]  # len() fails past sys.maxsize seeds
    protocol = args.protocol if args.protocol is not None else cfg.protocol
    # a run that writes and verifies no artifact builds no trace text
    wants_artifacts = args.out is not None or args.verify is not None
    failures = 0
    for seed in seeds:
        trace = (TraceWriter(args.trace_level) if wants_artifacts
                 else NullTrace())
        try:
            result = run_scenario(args.scenario, cfg=cfg, protocol=protocol,
                                  seed=seed, max_cycles=args.max_cycles,
                                  trace=trace)
        except (ConfigError, ValueError) as exc:
            print(f"optomac: {exc}", file=sys.stderr)
            return 2
        print(_summary_line(result, protocol, seed))
        failures += args.verify is None and result.status != "ok"
        if not wants_artifacts:
            continue
        artifacts = _artifact_map(result, trace)
        if args.out is not None:
            directory = args.out / f"seed-{seed}" if sweep else args.out
            _write_artifacts(directory, artifacts)
        if args.verify is not None:
            golden = args.verify / f"seed-{seed}" if sweep else args.verify
            problems = _verify(golden, artifacts)
            for p in problems:
                print(f"optomac: verify: {p}", file=sys.stderr)
            if problems:
                failures += 1
            else:
                print(f"verify: artifacts match {golden}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
