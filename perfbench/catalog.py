"""The benchmark's metrics: names, units, direction, kind, and for each
per-layer metric the end-to-end metric and workload it is expected to move.

`BENCHMARK.json` at the repository root lists the same names and units; the
self-tests check that the two agree.  Kinds: "timing" is a measured duration
(or a rate derived from one), "memory" is a peak size, "count" is an exact count that repeats
bit-for-bit for the same seed and run length, "ratio" is a quotient of two
exact counts.
"""

WORKLOADS = {
    "walk": "2,000 chip-adding steps per op at level 4: thousands of tiny avalanches, "
    "so toppling-call overhead and the per-trial loop dominate; no group work",
    "identity": "cold level-5 identity (two huge avalanches), tile/doubling/junction "
    "identities and rendering: toppling inner-loop throughput dominates",
    "exact": "Bareiss, Smith mod the order, adapted basis, adjugate, group theorem, "
    "characters and CLI at levels 3-4: big-integer algebra, almost no toppling",
}

# (name, unit, better, bound, kind).  Every workload reports all of them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "timing"),
    ("wall_s", "s", "lower", 0.25, "timing"),
    ("ops_per_s", "1/s", "higher", 0.25, "timing"),
    ("op_p50_s", "s", "lower", 0.25, "timing"),
    ("op_tail_s", "s", "lower", 0.25, "timing"),
    ("peak_rss_mb", "MB", "lower", 0.1, "memory"),
]

# (name, unit, better, kind, moves).  Totals are over the traced timed
# phase, whose op count is fixed by the workload and --seconds.
PER_LAYER = [
    ("gasket.build_s", "s", "lower", "timing", "setup_s, all workloads"),
    ("sandpile.stabilize_calls", "count", "lower", "count", "walk steps, identity op_p50_s"),
    ("sandpile.topples", "count", "lower", "count", "walk wall_s, identity op_p50_s"),
    ("sandpile.stabilize_s", "s", "lower", "timing", "walk wall_s, identity op_p50_s"),
    ("sandpile.topples_per_s", "1/s", "higher", "timing", "identity op_p50_s"),
    ("sandpile.call_us_p50", "us", "lower", "timing", "walk ops_per_s (chain steps/s)"),
    ("sandpile.avalanche_p50", "count", "lower", "count", "walk ops_per_s"),
    ("sandpile.avalanche_p99", "count", "lower", "count", "walk op_tail_s"),
    ("sandpile.identity_s", "s", "lower", "timing", "identity op_p50_s"),
    ("sandpile.burn_s", "s", "lower", "timing", "identity op_p50_s"),
    ("selfsim.tiles_s", "s", "lower", "timing", "identity op_p50_s"),
    ("selfsim.doubling_s", "s", "lower", "timing", "identity op_p50_s"),
    ("selfsim.junction_s", "s", "lower", "timing", "identity op_p50_s"),
    ("markov.chi_decay_s", "s", "lower", "timing", "walk ops_per_s, wall_s"),
    ("markov.steps", "count", "higher", "count", "walk ops_per_s (fixed per op)"),
    ("markov.steps_per_s", "1/s", "higher", "timing", "walk ops_per_s"),
    ("markov.stabilizing_step_ratio", "ratio", "lower", "ratio", "walk ops_per_s"),
    ("markov.sample_stationary_s", "s", "lower", "timing", "exact op_p50_s"),
    ("markov.exact_tv_s", "s", "lower", "timing", "exact op_p50_s"),
    ("group.determinant_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.smith_diag_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.adapted_basis_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.adjugate_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.theorem_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.tau_matrix_tree_s", "s", "lower", "timing", "exact op_p50_s, wall_s"),
    ("group.order_bits", "bits", "lower", "count", "exact (input size; nothing on walk/identity)"),
    ("spectral.characters", "count", "lower", "count", "exact op_p50_s"),
    ("spectral.characters_s", "s", "lower", "timing", "exact op_p50_s"),
    ("spectral.distance_s", "s", "lower", "timing", "exact op_p50_s"),
    ("render.ppm_s", "s", "lower", "timing", "identity op_p50_s (small share)"),
    ("render.svg_s", "s", "lower", "timing", "identity op_p50_s (small share)"),
    ("render.bytes", "bytes", "lower", "count", "identity op_p50_s (small share)"),
    ("cli.snf_s", "s", "lower", "timing", "exact op_p50_s; minus determinant+smith_diag = duplicate determinant"),
    ("cli.report_s", "s", "lower", "timing", "exact op_p50_s"),
]

# Busy time (span time not nested in the same layer) and self time (busy
# minus time in nested spans of other layers) per layer.  "bench" is the
# harness itself: the op span around the layer calls, whose self time is
# checking and glue.  The gasket layer only runs during set-up, which
# gasket.build_s covers.
SPAN_LAYERS = ("sandpile", "selfsim", "group", "spectral", "markov", "render", "cli", "bench")
PER_LAYER += [
    (f"{layer}.{kind}_s", "s", "lower", "timing", f"{layer} share of wall_s")
    for layer in SPAN_LAYERS
    for kind in ("busy", "self")
]

PER_LAYER += [
    ("trace.wall_s", "s", "lower", "timing", "traced timed phase, replay excluded, at nominal speed"),
    ("trace.overhead_s", "s", "lower", "timing", "trace.wall_s minus the untraced wall_s, both at nominal speed"),
    ("trace.replay_s", "s", "lower", "timing", "outside replay of walk/identity toppling"),
    ("trace.spans", "count", "lower", "count", "spans recorded"),
]
