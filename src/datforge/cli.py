"""Command-line entry point: run / distort / sweep / probe.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .distort import (
    ADDITIVE_BANK,
    GAUSSIAN,
    REVERB,
    TRAIN_KINDS,
    TRAIN_PROPORTIONS,
    Clip,
    derive_seed,
    distort_clips,
    largest_remainder_counts,
    make_spec,
    manifest_row,
    read_wav,
    require_t60,
    write_manifest,
    write_wav,
)
from .errors import ConfigError, DatforgeError, FormatError, require_count
from .pipeline import (ExperimentManifest, require_finished_run, run_experiment, run_probe,
                       run_sweep, sweep_plan, usable_cpus)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
DEFAULT_SNR_DB = 15.0  # what `distort` mixes additive kinds at when --snr is not given


def _resolve_out(manifest: ExperimentManifest) -> Path:
    # joining an absolute output_dir gives it back, so DATFORGE_OUT moves relative ones only
    return Path(os.environ.get("DATFORGE_OUT", ".")) / manifest.output_dir


def _load_manifest(args) -> ExperimentManifest:
    manifest = ExperimentManifest.from_file(args.manifest)
    manifest = manifest if args.seed is None else manifest.with_seed(args.seed)
    manifest.corpus.noise_bank  # read once, so a bad noise WAV fails every command, dry runs too
    return manifest


def _print_plan(args, manifest: ExperimentManifest, out_dir: Path):
    payload = manifest.to_dict()
    print(f"manifest: {args.manifest}")
    print(f"output_dir: {out_dir}")
    print(f"seed: {manifest.seed}")
    print(f"corpus: {payload['corpus']}")
    for entry in payload["stages"]:  # each stage with the settings it reads
        print(f"stage: {entry.pop('stage')} " + " ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in entry.items()))


def _cmd_run(args) -> int:
    manifest = _load_manifest(args)
    out_dir = _resolve_out(manifest)
    if args.dry_run:
        _print_plan(args, manifest, out_dir)
        return EXIT_OK
    report = run_experiment(manifest, out_dir)
    print(f"wrote {out_dir / 'report.csv'} ({len(report.rows)} rows)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    manifest = _load_manifest(args)
    out_dir = _resolve_out(manifest)
    if args.dry_run:
        sweep, lams = sweep_plan(manifest)
        print(f"sweep stage={sweep.stage} objective={sweep.objective} lambdas={lams}")
        return EXIT_OK
    rows = run_sweep(manifest, out_dir, jobs=usable_cpus())
    for r in rows:
        marker = " *" if r["reported"] else ""
        print(f"lambda={r['lambda']:g} clean={r['clean_acc']:.3f} "
              f"seen={r['seen_acc']:.3f} unseen={r['unseen_acc']:.3f}{marker}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    manifest = _load_manifest(args)
    out_dir = _resolve_out(manifest)
    if args.dry_run:
        require_finished_run(manifest, out_dir)
        _print_plan(args, manifest, out_dir)
        return EXIT_OK
    rows = run_probe(manifest, out_dir)
    for r in rows:
        print(f"{r['stage']}: probe_acc={r['probe_acc']:.3f} chance={r['chance_level']:.3f}")
    return EXIT_OK


def _cmd_distort(args) -> int:
    for flag, value, kinds in (("--t60", args.t60, (ADDITIVE_BANK, GAUSSIAN)),
                               ("--snr", args.snr, (REVERB,))):
        if value is not None and args.kind in kinds:
            raise ConfigError(f"{flag} is not read by --kind {args.kind}")
    snr = DEFAULT_SNR_DB if args.snr is None else args.snr
    if not math.isfinite(snr):
        raise ConfigError(f"--snr must be a finite number of dB, got {snr}")
    if args.t60 is not None:
        require_t60("--t60", args.t60)
    require_count("--seed", args.seed, 0)
    in_dir, out_dir = Path(args.in_dir), Path(args.out_dir)
    if not in_dir.is_dir():
        raise ConfigError(f"input directory not found: {in_dir}")
    if out_dir.resolve() == in_dir.resolve():
        raise ConfigError(f"output directory {out_dir} is the input directory")
    paths = sorted(in_dir.glob("*.wav"))
    if not paths:
        raise ConfigError(f"no WAV files in {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "mixed":
        counts = largest_remainder_counts(len(paths), TRAIN_PROPORTIONS)
        kinds = [k for k, c in zip(TRAIN_KINDS, counts) for _ in range(c)]
    else:
        kinds = [args.kind] * len(paths)
    out_paths, clips, specs = [], [], []
    for i, (path, kind) in enumerate(zip(paths, kinds)):
        try:
            clips.append(Clip(path.stem, read_wav(path), None))
        except FormatError as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        out_paths.append(out_dir / path.name)
        # each file keeps the seed of its index, skipped files counted
        spec = make_spec(kind, derive_seed(args.seed, i))
        if kind in (ADDITIVE_BANK, GAUSSIAN):
            spec = dataclasses.replace(spec, snr_db=snr)
        elif args.t60 is not None:
            spec = dataclasses.replace(spec, ir_id=args.t60)
        specs.append(spec)
    if not clips:
        print("error: all input files were skipped", file=sys.stderr)
        return EXIT_RUNTIME
    entries = []
    for out_path, clip in zip(out_paths, distort_clips(clips, specs)):
        write_wav(out_path, clip.waveform)
        entries.append(manifest_row(clip, "distorted", str(out_path)))
    write_manifest(out_dir / "manifest.jsonl", entries)
    print(f"distorted {len(clips)}/{len(paths)} files into {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="datforge",
                                     description="Distortion-robust training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest_args(p):
        p.add_argument("--manifest", required=True, help="experiment manifest JSON path")
        p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the plan without touching files")

    p_run = sub.add_parser("run", help="run the manifest's stages and write reports")
    add_manifest_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the gradient-reversal weight sweep")
    add_manifest_args(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_probe = sub.add_parser("probe", help="measure residual domain info in frozen features")
    add_manifest_args(p_probe)
    p_probe.set_defaults(fn=_cmd_probe)

    p_dist = sub.add_parser("distort", help="apply a distortion recipe to a WAV directory")
    p_dist.add_argument("in_dir")
    p_dist.add_argument("out_dir")
    p_dist.add_argument("--kind", default="mixed",
                        choices=["mixed", ADDITIVE_BANK, GAUSSIAN, REVERB])
    p_dist.add_argument("--snr", type=float, default=None,
                        help=f"SNR in dB for the additive kinds (default {DEFAULT_SNR_DB:g})")
    p_dist.add_argument("--t60", type=float, default=None,
                        help="reverb decay in seconds, at least one sample period (1/16000 s)")
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.set_defaults(fn=_cmd_distort)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure, keep the message human-readable
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
