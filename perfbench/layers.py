"""What each workload is and which end-to-end metric each per-layer metric
should move, on which workload.

BENCHMARK.json holds only the names, units and bounds; this module keeps
the shape of each workload and the layer -> end-to-end -> workload map that
later changes cite.  `run.py` prints the rows of the running workload with
every result.

End-to-end metrics (BENCHMARK.json) are reported by every workload from its
closed loop and its fixed pass, all restated at the reference speed:

    results_per_s, p50_ms   correct results per second and median latency
                            of the closed loop's operation
    pass_s                  median time of one fixed pass of the workload
    setup_s                 fresh interpreter to first timed call

The loop's p99 is the per-layer metric bench.loop.p99_ms: on a shared
machine a tail percentile does not repeat within any usable bound.  The
workload's own metrics (`named` in the result detail) say what the
end-to-end metrics are on each workload, under the names the issue tracker
uses, together with failed_frac.
"""

WORKLOADS = {
    "real_batch": {
        "shape": "closed loop, 1 client, single process",
        "loop": "eval_real, one call per point",
        "pass": "bulk: in-process `wtan grid`, spectrum(3000 levels) x2, fit() at 4 orders",
        "named": ["real_scalar_per_s", "real_scalar_p50_us", "real_scalar_p99_us",
                  "real_bulk_s"],
        "census": "eval_real on |x| >= 1e30 (silent wrong values from ~2e31) and on "
                  "subnormal |x| whose root offset |x|/C underflows (NoConvergence)",
    },
    "complex_sheets": {
        "shape": "closed loop, 1 client, single process",
        "loop": "eval_complex on alternating near and far points, sheets +-1..+-4",
        "pass": "cold dispersion build, 10 cut operations, one trace_path double loop",
        "named": ["complex_far_per_s", "complex_near_per_s", "complex_p50_ms",
                  "complex_p99_ms", "cut_ops_per_s", "dispersion_build_ms"],
        "census": "eval_complex on |z| >= 10**6.5 (StepTooLarge from ~1e7)",
    },
    "tables": {
        "shape": "closed loop, 1 client, single process",
        "loop": "eval_series on both order-300 tables and eval_cheb, one call per point",
        "pass": "the analysis bundle (series, fits, branch points, local check, integrals)",
        "named": ["tables_s"],
        "census": None,
    },
    "cli_session": {
        "shape": "closed loop, 1 client, one `python -m wtan` process at a time",
        "loop": "one CLI process",
        "pass": "the whole 12-process script",
        "named": ["cli_p50_s", "cli_session_s"],
        "census": None,
    },
}

# layer metrics -> end-to-end metrics (BENCHMARK.json name / workload's own name)
# they should move -> workloads.  `*` stands for any listed stat or variant.
LAYER_MAP = [
    ("core.eval_real.{small_x,large_x,high_n}.{calls,p50_us,p99_us}",
     ["results_per_s", "p50_ms", "real_scalar_per_s", "real_scalar_p99_us"],
     ["real_batch"]),
    ("quantum.spectrum.*, chebyshev.fit.*, cli.grid.inproc_ms, cli.grid.eval_real_calls",
     ["pass_s", "real_bulk_s"], ["real_batch"]),
    ("complex_plane.eval_complex.{far,near}.p50_ms, complex_plane.halley_steps_per_eval.*, "
     "core.halley_step.raised_frac, complex_plane.anchor_eval_real_s",
     ["results_per_s", "p50_ms", "complex_far_per_s", "complex_near_per_s",
      "complex_p50_ms", "complex_p99_ms"], ["complex_sheets"]),
    ("complex_plane.boundary_value.*, complex_plane.dispersion.halley_steps, "
     "complex_plane.trace_path.ms",
     ["pass_s", "cut_ops_per_s", "dispersion_build_ms"], ["complex_sheets"]),
    ("complex_plane.failed.*, complex_plane.census.attempted",
     ["failed_frac (census)"], ["complex_sheets"]),
    ("core.failed.*, core.census.attempted", ["failed_frac (census)"], ["real_batch"]),
    ("series.*.s, series.eval_series.us", ["pass_s", "tables_s", "results_per_s"],
     ["tables"]),
    ("branch_points.*, integrals.*, chebyshev.eval_cheb.us",
     ["pass_s", "tables_s", "setup_s (atlas build)"], ["tables", "complex_sheets"]),
    ("cli.import.{total,scipy,numpy,mpmath}_s",
     ["setup_s", "p50_ms", "pass_s", "cli_p50_s", "cli_session_s"],
     ["cli_session", "real_batch", "complex_sheets", "tables"]),
    ("cli.<subcommand>.s, cli.<subcommand>.inproc_ms",
     ["p50_ms", "pass_s", "cli_p50_s", "cli_session_s"], ["cli_session"]),
    ("bench.loop.p99_ms", ["p50_ms", "results_per_s", "real_scalar_p99_us", "complex_p99_ms"],
     ["real_batch", "complex_sheets", "tables", "cli_session"]),
    ("bench.trace.overhead_frac (0 on cli_session, which installs no wrappers)",
     ["none: the cost of tracing itself"],
     ["real_batch", "complex_sheets", "tables", "cli_session"]),
]


def rows_for(workload: str) -> list[dict]:
    return [{"layer": layer, "moves": moves, "on": on}
            for layer, moves, on in LAYER_MAP if workload in on]
