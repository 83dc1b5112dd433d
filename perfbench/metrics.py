"""Names, units and meaning of every metric the benchmark reports.

Standard library only: `run.py` checks `BENCHMARK.json` against these lists
before it starts a child, and `layers.py` fills the per-layer values.
"""

WORKLOADS = ("gate", "wkb-catalog", "lab")

# (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("checks_passed_ratio", "1", "higher"),
]

CRITERIA = (
    "interface-constant-1d", "kernel-mass-two-way", "wkb-identities",
    "near-boundary-law", "mean-curvature-extraction", "barrier-sandwich",
    "higher-order-coefficient", "grid-solver-convergence",
    "helicoid-half-value", "maximum-principle", "rigidity-probe",
)

#: h of the gate's disk convergence study, as metric labels
CG_LEVELS = ("h1_32", "h1_64", "h1_128")

#: engine builds are labelled surface_side (side -1 = inside Omega)
ENGINE_PAIRS = tuple(f"{s}_{side}" for s in
                     ("plane", "sphere", "cylinder", "helicoid", "catenoid")
                     for side in ("inside", "outside"))

_S, _N = "s", "count"

PER_LAYER = (
    [(f"acceptance.{c}.wall_s", _S, "lower") for c in CRITERIA]
    + [
        ("elliptic.grid_modified_helmholtz.calls", _N, "lower"),
        ("elliptic.grid_modified_helmholtz.cells", _N, "lower"),
        ("elliptic.grid_modified_helmholtz.self_s", _S, "lower"),
    ]
    + [(f"elliptic.cg.iterations.{h}", _N, "lower") for h in CG_LEVELS]
    + [
        ("elliptic.cg.self_s", _S, "lower"),
        ("elliptic.assemble_operator.self_s", _S, "lower"),
        ("elliptic.spsolve.calls", _N, "lower"),
        ("elliptic.spsolve.self_s", _S, "lower"),
        ("elliptic.grid.bytes_computed", "B", "lower"),
        ("elliptic.solve_radial_dirichlet.calls", _N, "lower"),
        ("elliptic.solve_radial_dirichlet.self_s", _S, "lower"),
        ("elliptic.solve_radial_transmission.calls", _N, "lower"),
        ("elliptic.solve_radial_transmission.self_s", _S, "lower"),
        ("wkb.engine_build.count", _N, "lower"),
        ("wkb.engine_build.s", _S, "lower"),
    ]
    + [(f"wkb.engine_build.{p}.s", _S, "lower") for p in ENGINE_PAIRS]
    + [
        ("wkb.coefficient_engine.calls", _N, "lower"),
        ("wkb.coefficient_engine.hit_ratio", "1", "higher"),
        ("wkb.field.points", _N, "lower"),
        ("wkb.field.self_s", _S, "lower"),
        ("wkb.laplacian.points", _N, "lower"),
        ("wkb.laplacian.self_s", _S, "lower"),
        ("wkb.calibrate_thresholds.calls", _N, "lower"),
        ("wkb.calibrate_thresholds.self_s", _S, "lower"),
        ("wkb.gradient_identity_residual.calls", _N, "lower"),
        ("wkb.gradient_identity_residual.self_s", _S, "lower"),
        ("wkb.compute_coefficients.self_s", _S, "lower"),
        ("geometry.Helicoid.project_batch.points", _N, "lower"),
        ("geometry.Helicoid.project_batch.self_s", _S, "lower"),
        ("geometry.Catenoid.project_batch.points", _N, "lower"),
        ("geometry.Catenoid.project_batch.self_s", _S, "lower"),
        ("kernel1d.halfline_quadrature.calls", _N, "lower"),
        ("kernel1d.halfline_quadrature.self_s", _S, "lower"),
        ("kernel1d.eval_kernel.calls", _N, "lower"),
        ("quadrature.integrate_adaptive.calls", _N, "lower"),
        ("quadrature.integrate_adaptive.self_s", _S, "lower"),
        ("parabolic.evolve.calls", _N, "lower"),
        ("parabolic.evolve.steps", _N, "lower"),
        ("parabolic.evolve.cell_steps", _N, "lower"),
        ("parabolic.evolve.self_s", _S, "lower"),
        ("parabolic.laplace_stieltjes.self_s", _S, "lower"),
        ("helicoid.mc.samples", _N, "lower"),
        ("helicoid.mc.self_s", _S, "lower"),
        ("helicoid.mc.samples_per_s", "1/s", "higher"),
        ("helicoid.symmetry_identities_check.self_s", _S, "lower"),
        ("cli.artifact_bytes", "B", "lower"),
        ("cli.manifest_identical", "1", "higher"),
        ("trace.overhead_s", _S, "lower"),
        ("trace.spans", _N, "lower"),
    ]
)

#: which end-to-end metric each layer should move, and on which workload;
#: a change to a layer predicts no change on the workloads not named
LAYER_MOVES = {
    "acceptance": "wall_s on gate",
    "elliptic (grid, CG)": "wall_s, cpu_s, peak_rss_mb on gate",
    "elliptic (grid, direct spsolve)": "wall_s on lab",
    "elliptic (radial)": "wall_s on lab",
    "wkb (engine builds)": "wall_s on wkb-catalog and gate",
    "wkb (field and laplacian reads)": "wall_s on wkb-catalog",
    "geometry (minimal-surface projections)": "wall_s on wkb-catalog, then gate",
    "kernel1d / quadrature": "wall_s on lab",
    "parabolic": "wall_s on lab",
    "helicoid (Monte Carlo)": "wall_s, cpu_s on lab",
    "cli": "wall_s on lab",
}
