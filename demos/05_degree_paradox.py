"""
The average degree depends on who is asking
===========================================

Globally, a one-face map with n edges and genus g has mean degree
2n/(n+1-2g), about 4 when g = n/4.  But stand at the root and average
degrees over everything within distance r and the number creeps up
toward 2/(1-beta), nearly 10.  Both are correct: balls oversample busy
neighborhoods, and in an exponentially growing tree most of the ball
sits at its boundary where the crowding is worst.
"""

from unimaps.asymptotics import regime
from unimaps.experiments import ExperimentConfig, degree_profile

theta = 0.25
reg = regime(theta)
print(f"theta={theta}: global mean -> {2 / (1 - 2 * theta):.4f}, "
      f"ball average -> {2 / (1 - reg.beta):.4f}")

cfg = ExperimentConfig(n=2000, g=500, samples=1500, seed=41, workers=2)
report = degree_profile(cfg, r=10)

row = report.section_rows("global")[0]
print(f"\nglobal mean degree at (n={cfg.n}, g={cfg.g}): "
      f"{row.observed:.4f} (exact identity, no sampling error)")

print("\nball averages on the limit tree:")
for row in report.section_rows("ball_average"):
    print(f"  {row.outcome:5s} observed {row.observed:.3f}"
          f"  limit {row.expected:.3f}")

# the two figures never meet; the gap is the size bias of balls, not a
# finite-size artifact
print(f"\npassed: {report.passed}")
