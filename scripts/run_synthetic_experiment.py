#!/usr/bin/env python3
"""Identification sweep on a synthetic corpus.

Runs nested cross-validation for every requested connectivity metric and
band on synthetic subjects with known phase-coupling structure, and prints
an accuracy table.  Useful as an end-to-end smoke test of the pipeline
without any real data.

Example:
    python3 scripts/run_synthetic_experiment.py --subjects 12 --metrics PLV COR
"""

import argparse
import sys

from eegid import evaluation, synth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=12)
    parser.add_argument("--channels", type=int, default=8)
    parser.add_argument("--duration", type=float, default=60.0,
                        help="per-subject recording length in seconds")
    parser.add_argument("--epoch-length", type=float, default=4.0)
    parser.add_argument("--metrics", nargs="+", default=["PLV"],
                        choices=["COR", "PLV", "PLI"])
    parser.add_argument("--bands", nargs="+", default=["gamma"])
    parser.add_argument("--gb", default=None,
                        help="optional graph metric: ND | EC | BC | CC")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    corpus = synth.synthetic_corpus(
        n_subjects=args.subjects, n_channels=args.channels,
        duration_s=args.duration, seed=args.seed,
    )
    print(f"corpus: {args.subjects} subjects x {args.channels} channels x "
          f"{args.duration:g}s", file=sys.stderr)
    # every config below keeps the default filter settings
    corpus = list(evaluation.preprocessed(corpus))

    print("metric,band,accuracy,standard_error")
    for metric in args.metrics:
        for band in args.bands:
            config = evaluation.ExperimentConfig(
                metric=metric, band=band, gb_metric=args.gb,
                epoch_length_s=args.epoch_length, seed=args.seed,
            )
            report = evaluation.run_experiment(corpus, config)
            print(f"{metric},{band},{report.cv.mean_accuracy:.4f},"
                  f"{report.cv.standard_error:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
