"""
What a high-genus map looks like around its root
================================================

Zoom in on the root of a uniform map with g = n/4.  Locally the map is
a supercritical branching tree conditioned to survive, folded onto
itself wherever the gluing permutation merged vertices.  This demo runs
the packaged comparison and walks through its report.
"""

from unimaps.experiments import (
    MIN_EXPECTED,
    TOP_M,
    Z_MAX,
    ExperimentConfig,
    run_local_limit,
)

cfg = ExperimentConfig(n=500, g=125, samples=2000, seed=7, workers=2)
report = run_local_limit(cfg, radii=(1, 2))

# the report compares raw outcome frequencies against the limit ball
# law; anything the finite map does that the limit tree cannot (balls
# with cycles, merged vertices) shows up as residual mass, reported
# separately rather than renormalized away
print("sections scored:", ", ".join(report.scored))
for name in ("nontree_r1", "nontree_r2", "merged_r2"):
    print(f"  {name}: {report.mass(name):.4f}")

# radius-1 tree balls are stars, whose shape fixes their plane order;
# here are the most common ones
rows = sorted(report.section_rows("shape_r1"), key=lambda r: -r.expected)
print("\ntop radius-1 balls (observed vs limit):")
for row in rows[:5]:
    print(f"  {row.outcome:12s} {row.observed:.4f} vs {row.expected:.4f}"
          f"  z={row.z:+.2f}")

# deeper plane structure washes out at this genus, but the tree shape
# (ignoring cyclic order) and the (edges, deepest-vertices) profile
# remain comparable; the pass flag covers every scored section, where
# each of the TOP_M likeliest outcomes expected at least MIN_EXPECTED
# times must have |z| <= Z_MAX
print(f"\npassed: {report.passed}")
past = []
for section in report.scored:
    head = sorted(report.section_rows(section), key=lambda r: (-r.expected, r.outcome))
    past += [row for row in head[:TOP_M]
             if row.expected * cfg.samples >= MIN_EXPECTED and abs(row.z) > Z_MAX]
for row in past:
    print(f"  past the z bound: {row.section} {row.outcome}"
          f" {row.observed:.4f} vs {row.expected:.4f}  z={row.z:+.2f}")
if any(row.section == "shape_r1" for row in past):
    # the stars that a loop or double edge spoilt are counted in nontree_r1
    print("  At this n a root of large degree often carries a loop or a double edge,\n"
          "  so its radius-1 ball is no star and the large stars fall under the\n"
          "  limit law: the finite map is not yet a tree around its root.")

# the same machinery rendered for files
print("\nCSV header of the full report:")
print("\n".join(report.to_csv().splitlines()[:6]))
