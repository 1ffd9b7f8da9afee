"""
Random probing vs eigenvector probing across dimensionality
===========================================================

For Gaussian clusters of fixed size, sweep the ambient dimension and
compare the two direction-set choices on value and cost.  Random
probing with a few hundred directions tracks eigenvector probing
closely while staying cheap as the dimension grows, because it skips
the full eigendecomposition.
"""

from isoclust import run_sweep

rows = run_sweep(dims=[10, 50, 250], points=100, repeats=5, counts=[10, 100, 1000], seed=0)

print(f"{'dim':>5} {'method':>7} {'vectors':>8} {'mean isotropy':>14} {'mean seconds':>13}")
for row in rows:
    vectors = "" if row["vectors"] is None else row["vectors"]
    print(
        f"{row['dim']:>5} {row['method']:>7} {vectors:>8} "
        f"{row['mean_isotropy']:>14.4f} {row['mean_seconds']:>13.5f}"
    )

# Within each dim block the rnd rows converge from above toward a
# stable value as the direction count grows, while the vec row's cost
# climbs with dimension much faster than any rnd row's.
