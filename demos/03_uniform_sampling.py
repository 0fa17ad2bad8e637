"""
Uniform random one-face maps in linear time
===========================================

The sampler never touches the 2n-gon.  It draws a uniform plane tree
decorated with a uniform all-odd-cycle permutation of its vertices
(plus a sign per cycle), then glues each cycle's vertices into one.
Every map of genus g arises from the same number of such decorated
trees, so the output is exactly uniform.
"""

from collections import Counter

import numpy as np

from unimaps.distributions import root_degree_limit_pmf
from unimaps.oracle import exact_root_degree_dist
from unimaps.sampler import root_degree, sample_c_decorated_tree, sample_unicellular

rng = np.random.default_rng(2024)

# one draw, fully inspectable
[sample] = sample_unicellular(8, 2, rng, 1)
graph = sample.graph
print(f"n=8, g=2 draw: {len(graph.edges)} edges on "
      f"{8 + 1 - 2 * 2} vertices, root vertex {graph.root_vertex}")
print("edges:", graph.edges)
cdt = sample.source
print("built from a plane tree with cycle signs", cdt.signs)

# sanity at a size the gluing oracle can enumerate: empirical root
# degree against the exact distribution; the degree is the tree degrees
# summed over the root's cycle, so no quotient graph is built
draws = 20_000
counts = Counter(map(root_degree, sample_c_decorated_tree(4, 1, rng, draws)))
exact = exact_root_degree_dist(4, 1)
print(f"\nroot degree at (n=4, g=1), {draws} draws:")
for d in sorted(exact):
    print(f"  degree {d}: observed {counts.get(d, 0) / draws:.4f}"
          f"  exact {float(exact[d]):.4f}")

# at large n with g = n/4 the root degree approaches a universal law
n, g, draws = 600, 150, 4000
counts = Counter(map(root_degree, sample_c_decorated_tree(n, g, rng, draws)))
print(f"\nroot degree at (n={n}, g={g}), {draws} draws:")
for d in range(1, 7):
    limit = root_degree_limit_pmf(g / n, d)
    print(f"  degree {d}: observed {counts.get(d, 0) / draws:.4f}"
          f"  limit {limit:.4f}")
