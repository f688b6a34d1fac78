"""Meta-data is not free: the block dimension that minimizes total storage.

The redirection tables hold one record per block of the full grid, a slab
rank and a transpose id (9 bytes, k = 1.125 floats), so unit blocks drown
the payload savings in bookkeeping while a single block wastes the
symmetry entirely.  The interior of the sweep wins.
"""

from blocksym import compress, measured_meta_k, metadata_sweep, random_symmetric

m, n = 5, 64

# Measure what one meta record actually costs in this implementation,
# in units of 8-byte floats, on a small probe instance.
probe = compress(random_symmetric(m, 4, seed=0), 1)
k = measured_meta_k(probe)
print(f"measured meta cost: k = {k:.3f} floats per block\n")

rows, best = metadata_sweep(m, n, k)
dense = n**m
print(f"{'b':>4}  {'payload':>14}  {'total with meta':>16}  {'vs dense':>9}")
for b, payload, total in rows:
    marker = "  <-- minimum" if b == best else ""
    print(f"{b:>4}  {payload:>14}  {float(total):>16.3e}  {float(total) / dense:>9.3f}{marker}")

print(f"\ndense count n^m = {dense:.3e}")
print(f"best block dimension: {best}")
print("unit blocks store more than the dense tensor once k >= 1;")
print("block dimensions past the square root of n waste the compaction.")
