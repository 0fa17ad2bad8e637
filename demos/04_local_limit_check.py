"""
What a high-genus map looks like around its root
================================================

Zoom in on the root of a uniform map with g = n/4.  Locally the map is
a supercritical branching tree conditioned to survive, folded onto
itself wherever the gluing permutation merged vertices.  This demo runs
the packaged comparison and walks through its report.
"""

from unimaps.experiments import ExperimentConfig, run_local_limit

cfg = ExperimentConfig(n=500, g=125, samples=2000, seed=7, workers=2)
report = run_local_limit(cfg, radii=(1, 2))

# the report compares raw outcome frequencies against the limit ball
# law; anything the finite map does that the limit tree cannot (balls
# with cycles, merged vertices) shows up as residual mass, reported
# separately rather than renormalized away
print("sections scored:", ", ".join(report.scored))
for name in ("nontree_r1", "nontree_r2", "merged_r2"):
    print(f"  {name}: {report.mass(name):.4f}")

# radius-1 balls are stars, whose shape fixes their plane order, so
# they survive the gluing intact; here are the most common ones
rows = sorted(report.section_rows("shape_r1"), key=lambda r: -r.expected)
print("\ntop radius-1 balls (observed vs limit):")
for row in rows[:5]:
    print(f"  {row.outcome:12s} {row.observed:.4f} vs {row.expected:.4f}"
          f"  z={row.z:+.2f}")

# deeper plane structure washes out at this genus, but the tree shape
# (ignoring cyclic order) and the (edges, deepest-vertices) profile
# remain comparable; the pass flag covers every scored section
print(f"\npassed: {report.passed}")

# the same machinery rendered for files
print("\nCSV header of the full report:")
print("\n".join(report.to_csv().splitlines()[:6]))
