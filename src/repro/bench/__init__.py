"""Experiment harness: one driver per table and figure of the paper
(:mod:`repro.bench.experiments`, with the registry of golden tables)
and their one writer and checker (:mod:`repro.bench.report`)."""
